//go:build !memoguard

package types

// memoGuard is off: a memo hit reads the memo alone (memoguard_on.go).
const memoGuard = false
