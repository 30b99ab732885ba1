// Package campaign turns a whole paper-style characterization — multiple
// exploration spaces, an executor choice, parallelism, convergence targets,
// and an output store — into one declarative, reviewable file instead of a
// shell script of flags. A campaign file is YAML (a small dependency-free
// subset, see yaml.go) or JSON; both decode through the same schema with
// unknown-key rejection, so a typo'd field fails the load rather than
// silently running a different sweep.
//
// A Campaign is the CLI's only sweep description: the run and list flags
// fill in a one-space Campaign, so flags and files share one Validate and
// one Plan. It is also the one planner: a space's specs and co-run pairs
// (SpaceConfig.Trials) and a workload's launch spec go through one threads
// × placements grid with their kind's defaults, which checks the budget
// with harness.Trial.ValidateBudget; Campaign.Plan stamps the counter spec
// and sampling interval on the trials, keeps each configuration key's
// first appearance and numbers the trials in order.
package campaign
