package dist

// Test doubles from stream_test.go, shared with the external test
// package's fleet-failure tests.
var (
	BatchWorker  = batchWorker
	StartHandler = startHandler
)

// HostFailLimit is the consecutive failures that abandon a worker.
const HostFailLimit = hostFailLimit
