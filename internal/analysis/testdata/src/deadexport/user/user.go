// Package user is the other package of the deadexport fixture: its
// non-test references keep the library's exports alive.
package user

import "github.com/smartcrowd/smartcrowd/internal/analysis/testdata/src/deadexport"

// Use references UsedElsewhere directly and Writer as a Sink.
func Use() int {
	return deadexport.UsedElsewhere() + deadexport.Drain(&deadexport.Writer{})
}
