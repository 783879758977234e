// Package deadexport is the fixture for the deadexport pass: one firing
// case and three silent ones.
package deadexport

// OnlyTested is referenced from a_test.go alone — production code that
// only a test keeps alive.
func OnlyTested() int { return 1 } // want `exported func OnlyTested has no reference from a non-test file`

// UsedElsewhere is called from the user package's non-test file.
func UsedElsewhere() int { return 2 }

// Sink is the interface a Writer is used as.
type Sink interface{ Put(b []byte) int }

// Writer satisfies Sink. No identifier anywhere names Writer.Put: the
// call in Drain arrives through the interface.
type Writer struct{ n int }

// Put implements Sink.
func (w *Writer) Put(b []byte) int {
	w.n += len(b)
	return w.n
}

// Drain feeds a Sink; the user package passes it a *Writer.
func Drain(s Sink) int { return s.Put(nil) }

// hidden cannot be named outside the package, so neither can its
// exported method.
type hidden struct{}

// Visible is an exported symbol of an unexported type.
func (hidden) Visible() {}
