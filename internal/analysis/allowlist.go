package analysis

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

// Allowlist holds the audited exceptions scvet suppresses. The committed
// file (.scvet.allow at the module root) is the only suppression
// mechanism — no inline nolint comments — so every exception is reviewed
// in one place with its justification.
//
// File format, one entry per line:
//
//	<pass> <file-suffix> <message substring>
//
// Blank lines and #-comments are ignored; the comment above an entry is
// the conventional place for the justification. An entry suppresses a
// finding when the pass matches exactly, the finding's file path ends in
// file-suffix, and the message contains the substring.
type Allowlist struct {
	Entries []*AllowEntry
}

// AllowEntry is one parsed allowlist line.
type AllowEntry struct {
	Pass       string
	FileSuffix string
	MsgSub     string
	Line       int // line number in the allowlist file, for diagnostics
	Used       bool
}

// LoadAllowlist parses path. A missing file is an empty allowlist, not an
// error, so fresh checkouts need no stub file.
func LoadAllowlist(path string) (*Allowlist, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return &Allowlist{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	al := &Allowlist{}
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: allowlist entry needs `<pass> <file-suffix> <message substring>`", path, lineNo)
		}
		if passByName[fields[0]] == nil {
			return nil, fmt.Errorf("%s:%d: unknown pass %q", path, lineNo, fields[0])
		}
		al.Entries = append(al.Entries, &AllowEntry{
			Pass:       fields[0],
			FileSuffix: fields[1],
			MsgSub:     strings.TrimSpace(fields[2]),
			Line:       lineNo,
		})
	}
	return al, sc.Err()
}

// Allows reports whether f is a committed, audited exception, marking the
// matching entry used.
func (al *Allowlist) Allows(f Finding) bool {
	for _, e := range al.Entries {
		if e.Pass == f.Pass &&
			strings.HasSuffix(f.Pos.Filename, e.FileSuffix) &&
			strings.Contains(f.Msg, e.MsgSub) {
			e.Used = true
			return true
		}
	}
	return false
}

// Filter splits findings into kept (to report) and suppressed counts.
func (al *Allowlist) Filter(findings []Finding) (kept []Finding, suppressed int) {
	for _, f := range findings {
		if al.Allows(f) {
			suppressed++
			continue
		}
		kept = append(kept, f)
	}
	return kept, suppressed
}

// Unused returns entries that matched nothing — stale exceptions that
// should be deleted so the allowlist never outlives the code it excuses.
func (al *Allowlist) Unused() []*AllowEntry {
	var out []*AllowEntry
	for _, e := range al.Entries {
		if !e.Used {
			out = append(out, e)
		}
	}
	return out
}
