// Package adapt closes the loop between the OLS power model and the trial
// scheduler: instead of sweeping a campaign's full specs × threads ×
// placements grid, the Planner expands the grid into a candidate pool, runs
// a seeded spread batch, fits the model, and then repeatedly dispatches only
// the batch of remaining candidates with the highest expected information
// gain (D-optimality: the predictive leverage of each candidate's design row
// harness.Trial.Activity under the fit's model.Leverage, greedily updated
// within a batch by Sherman–Morrison), stopping as soon as
// every coefficient's relative standard error falls below the target or the
// trial budget runs out. An alternative "bo" mode optimizes instead of
// characterizes: a lightweight quadratic surrogate over EDP ranks candidates
// by expected improvement, for campaigns hunting the most efficient
// operating point rather than the full model.
//
// The planner is deliberately thin over the existing pipeline: batches are
// dispatched through any Dispatcher (the harness.Scheduler, or the fleet
// coordinator's lease table), results stream into the caller's sink exactly
// as an exhaustive sweep's would, and previously stored results seed the
// fitted state, so an interrupted adaptive campaign resumes instead of
// restarting. All randomness flows from the single configured seed.
package adapt
