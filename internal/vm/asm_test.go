package vm

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

func TestAssembleBasics(t *testing.T) {
	code, err := Assemble("PUSH 1\nPUSH 2\nADD\nSTOP")
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(PUSH1), 1, byte(PUSH1), 2, byte(ADD), byte(STOP)}
	if len(code) != len(want) {
		t.Fatalf("code = %x, want %x", code, want)
	}
	for i := range want {
		if code[i] != want[i] {
			t.Fatalf("code = %x, want %x", code, want)
		}
	}
}

func TestAssemblePushWidths(t *testing.T) {
	code, err := Assemble("PUSH 0\nPUSH 255\nPUSH 256\nPUSH 0xdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	// PUSH 0 → PUSH1 00, PUSH 255 → PUSH1 ff, PUSH 256 → PUSH2 0100,
	// PUSH 0xdeadbeef → PUSH4.
	if OpCode(code[0]) != PUSH1 || OpCode(code[2]) != PUSH1 {
		t.Error("small immediates should use PUSH1")
	}
	if code[4] != byte(PUSH1)+1 {
		t.Errorf("256 should use PUSH2, got %s", OpCode(code[4]))
	}
	if code[7] != byte(PUSH1)+3 {
		t.Errorf("0xdeadbeef should use PUSH4, got %s", OpCode(code[7]))
	}
}

func TestAssembleLabels(t *testing.T) {
	code, err := Assemble(`
PUSH @end
JUMP
PUSH 99
end:
STOP`)
	if err != nil {
		t.Fatal(err)
	}
	// PUSH2 hi lo JUMP PUSH1 99 JUMPDEST STOP
	dest := int(code[1])<<8 | int(code[2])
	if OpCode(code[dest]) != JUMPDEST {
		t.Errorf("label resolved to %d (%s), want JUMPDEST", dest, OpCode(code[dest]))
	}
}

func TestAssembleComments(t *testing.T) {
	code, err := Assemble("; full line comment\nPUSH 1 ; trailing\n\n  \nSTOP")
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != 3 {
		t.Errorf("code length = %d, want 3", len(code))
	}
}

func TestAssembleDupSwapFamilies(t *testing.T) {
	code, err := Assemble("PUSH 1\nPUSH 2\nDUP2\nSWAP1\nDUP16\nSWAP16")
	if err != nil {
		// DUP16/SWAP16 on a short stack fail at runtime, not assembly.
		t.Fatal(err)
	}
	if OpCode(code[4]) != DUP1+1 || OpCode(code[5]) != SWAP1 {
		t.Error("DUP2/SWAP1 misassembled")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic": "FROBNICATE",
		"push no operand":  "PUSH",
		"push extra":       "PUSH 1 2",
		"operand on bare":  "ADD 1",
		"undefined label":  "PUSH @nowhere\nJUMP",
		"duplicate label":  "a:\na:\nSTOP",
		"bad label space":  "bad label:",
		"bad hex":          "PUSH 0xzz",
		"hex too long":     "PUSH 0x" + strings.Repeat("ab", 33),
		"dup17":            "DUP17",
		"swap0":            "SWAP0",
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: assembled without error", name)
		}
	}
}

func TestDisassembleRoundtrip(t *testing.T) {
	src := `
PUSH 1
PUSH 0xdead
ADD
loop:
DUP1
PUSH @loop
JUMPI
STOP`
	code := MustAssemble(src)
	dis := Disassemble(code)
	for _, want := range []string{"PUSH1 0x01", "PUSH2 0xdead", "ADD", "JUMPDEST", "JUMPI", "STOP"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestDisassembleTruncatedPush(t *testing.T) {
	// PUSH4 with only 2 immediate bytes must not panic.
	out := Disassemble([]byte{byte(PUSH1) + 3, 0xAA, 0xBB})
	if !strings.Contains(out, "PUSH4") {
		t.Errorf("truncated push disassembly: %s", out)
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble did not panic on bad source")
		}
	}()
	MustAssemble("NOT_AN_OP")
}

func TestOpcodeStrings(t *testing.T) {
	if PUSH1.String() != "PUSH1" || OpCode(byte(PUSH1)+31).String() != "PUSH32" {
		t.Error("push names wrong")
	}
	if DUP1.String() != "DUP1" || SWAP16.String() != "SWAP16" {
		t.Error("dup/swap names wrong")
	}
	if !strings.Contains(OpCode(0xEE).String(), "INVALID") {
		t.Error("invalid opcode name wrong")
	}
}

// Disassemble renders bytecode as one instruction per line with offsets.
func Disassemble(code []byte) string {
	var sb strings.Builder
	for pc := 0; pc < len(code); {
		op := OpCode(code[pc])
		fmt.Fprintf(&sb, "%04x: %s", pc, op)
		if n := op.PushSize(); n > 0 {
			end := pc + 1 + n
			if end > len(code) {
				end = len(code)
			}
			fmt.Fprintf(&sb, " 0x%s", hex.EncodeToString(code[pc+1:end]))
			pc = end
		} else {
			pc++
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
