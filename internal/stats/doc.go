// Package stats aggregates repeated measurements: mean, median, standard
// deviation and coefficient of variation, the CV stopping rule (repeat until
// the sample set is stable) and CV-driven outlier rejection, which names the
// kept samples so a caller can drop perturbed runs whole, in the style of
// the MICRO 2012 characterization methodology.
package stats
