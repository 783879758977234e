package vm

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"github.com/smartcrowd/smartcrowd/internal/vm/uint256"
)

// Assemble translates SCVM assembly text into bytecode.
//
// Syntax, one statement per line:
//
//	label:            ; defines a jump target (emits JUMPDEST)
//	PUSH 42           ; decimal immediate, narrowest PUSH chosen
//	PUSH 0xdeadbeef   ; hex immediate
//	PUSH @label       ; label reference (fixed-width PUSH2)
//	ADD               ; any bare mnemonic
//	; comment         ; comments run to end of line
//
// Label references always assemble to PUSH2 so that code layout is stable
// across both assembly passes.
func Assemble(src string) ([]byte, error) {
	type pendingRef struct {
		label string
		pos   int // offset of the 2-byte immediate
		line  int
	}
	var (
		code   []byte
		labels = make(map[string]uint64)
		refs   []pendingRef
	)

	lines := strings.Split(src, "\n")
	for lineNo, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}

		if strings.HasSuffix(line, ":") {
			label := strings.TrimSuffix(line, ":")
			if label == "" || strings.ContainsAny(label, " \t") {
				return nil, fmt.Errorf("vm: line %d: bad label %q", lineNo+1, label)
			}
			if _, dup := labels[label]; dup {
				return nil, fmt.Errorf("vm: line %d: duplicate label %q", lineNo+1, label)
			}
			labels[label] = uint64(len(code))
			code = append(code, byte(JUMPDEST))
			continue
		}

		fields := strings.Fields(line)
		mnemonic := strings.ToUpper(fields[0])

		if mnemonic == "PUSH" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("vm: line %d: PUSH needs one operand", lineNo+1)
			}
			operand := fields[1]
			if strings.HasPrefix(operand, "@") {
				code = append(code, byte(PUSH1)+1) // PUSH2
				refs = append(refs, pendingRef{label: operand[1:], pos: len(code), line: lineNo + 1})
				code = append(code, 0, 0)
				continue
			}
			imm, err := parseImmediate(operand)
			if err != nil {
				return nil, fmt.Errorf("vm: line %d: %v", lineNo+1, err)
			}
			b := imm.Bytes()
			if len(b) == 0 {
				b = []byte{0}
			}
			code = append(code, byte(PUSH1)+byte(len(b)-1))
			code = append(code, b...)
			continue
		}

		op, err := lookupMnemonic(mnemonic)
		if err != nil {
			return nil, fmt.Errorf("vm: line %d: %v", lineNo+1, err)
		}
		if len(fields) != 1 {
			return nil, fmt.Errorf("vm: line %d: %s takes no operand", lineNo+1, mnemonic)
		}
		code = append(code, byte(op))
	}

	for _, ref := range refs {
		dest, ok := labels[ref.label]
		if !ok {
			return nil, fmt.Errorf("vm: line %d: undefined label %q", ref.line, ref.label)
		}
		if dest > 0xFFFF {
			return nil, fmt.Errorf("vm: line %d: label %q beyond PUSH2 range", ref.line, ref.label)
		}
		code[ref.pos] = byte(dest >> 8)
		code[ref.pos+1] = byte(dest)
	}
	return code, nil
}

// MustAssemble panics on assembly errors; for compile-time-constant
// contract sources.
func MustAssemble(src string) []byte {
	code, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return code
}

func parseImmediate(s string) (uint256.Int, error) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		hexStr := s[2:]
		if len(hexStr) == 0 || len(hexStr) > 64 {
			return uint256.Int{}, fmt.Errorf("bad hex immediate %q", s)
		}
		if len(hexStr)%2 == 1 {
			hexStr = "0" + hexStr
		}
		raw, err := hex.DecodeString(hexStr)
		if err != nil {
			return uint256.Int{}, fmt.Errorf("bad hex immediate %q: %v", s, err)
		}
		return uint256.FromBytes(raw), nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return uint256.Int{}, fmt.Errorf("bad immediate %q: %v", s, err)
	}
	return uint256.FromUint64(v), nil
}

func lookupMnemonic(name string) (OpCode, error) {
	for op, opName := range opNames {
		if opName == name {
			return op, nil
		}
	}
	if strings.HasPrefix(name, "DUP") {
		n, err := strconv.Atoi(name[3:])
		if err == nil && n >= 1 && n <= 16 {
			return DUP1 + OpCode(n-1), nil
		}
	}
	if strings.HasPrefix(name, "SWAP") {
		n, err := strconv.Atoi(name[4:])
		if err == nil && n >= 1 && n <= 16 {
			return SWAP1 + OpCode(n-1), nil
		}
	}
	return 0, fmt.Errorf("unknown mnemonic %q", name)
}
