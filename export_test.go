package sizelos

// PinResidualWorkers pins the residual push's worker count for the
// external benchmark package (BenchmarkRerankResidualParallel); in-package
// harnesses set the field directly. Not part of the library API: engines
// serve at 0 (auto), and every count produces bit-identical scores.
func (e *Engine) PinResidualWorkers(n int) { e.residualWorkers = n }
