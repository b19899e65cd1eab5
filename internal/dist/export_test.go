package dist

// Test doubles from stream_test.go, shared with the external test
// package's fleet-failure tests.
var (
	BatchWorker  = batchWorker
	StartHandler = startHandler
)
