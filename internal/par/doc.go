// Package par runs independent per-element work on every CPU while keeping
// the caller's view sequential. Map applies a function to each element of a
// slice on up to GOMAXPROCS goroutines and returns the outputs in input
// order, failing with the error of the lowest failing index, so a caller
// that yields or writes the outputs sees exactly the sequence a serial loop
// would produce. A one-element slice, or GOMAXPROCS=1, runs on the calling
// goroutine and starts nothing.
//
// Window is the batch length callers feed Map when the input is a stream:
// large enough to keep every CPU busy, small enough that only a window of
// decoded or encoded values is held at once.
package par
