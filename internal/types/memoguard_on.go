//go:build memoguard

package types

// memoGuard makes every memo hit hash its value again and panic on a
// mismatch: a test build's check that nothing writes a hashed value.
const memoGuard = true
