package deadexport

// A test file's reference must not keep OnlyTested alive.
var _ = OnlyTested()
