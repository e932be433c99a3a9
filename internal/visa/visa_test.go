package visa

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: NOP},
		{Op: HALT},
		{Op: MOVI, Ra: 3, Imm: -12345},
		{Op: MOV, Ra: 1, Rb: 2},
		{Op: LOADB, Ra: 0, Rb: 7, Imm: 0x7FFFFFFF},
		{Op: STOREW, Ra: 5, Rb: 6, Imm: -0x80000000},
		{Op: JMP, Imm: -8},
		{Op: JLT, Ra: 2, Rb: 3, Imm: 64},
		{Op: SYS, Imm: 901},
	}
	for _, in := range cases {
		t.Run(in.String(), func(t *testing.T) {
			got, err := Decode(in.Bytes())
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got != in {
				t.Errorf("round trip = %+v, want %+v", got, in)
			}
		})
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	prop := func(op uint8, ra, rb uint8, imm int32) bool {
		in := Inst{Op: Op(op % uint8(opCount)), Ra: ra % NumRegs, Rb: rb % NumRegs, Imm: imm}
		got, err := Decode(in.Bytes())
		return err == nil && got == in
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
	}{
		{"short", []byte{1, 2, 3}},
		{"bad op", Inst{Op: opCount}.Bytes()},
		{"bad reg", func() []byte {
			b := Inst{Op: MOV}.Bytes()
			b[1] = NumRegs
			return b
		}()},
		{"reserved", func() []byte {
			b := Inst{Op: NOP}.Bytes()
			b[3] = 1
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.b); err == nil {
				t.Error("Decode accepted invalid encoding")
			}
		})
	}
}

func TestAssemblerForwardAndBackwardLabels(t *testing.T) {
	var a Assembler
	a.Movi(0, 3)
	a.Jmp("skip") // forward reference
	a.Halt()
	a.Label("skip")
	a.Label("loop")
	a.Subi(0, 1)
	a.Jnz(0, "loop") // backward reference
	a.Halt()

	insts, err := a.Instructions()
	if err != nil {
		t.Fatalf("Instructions: %v", err)
	}
	// JMP at index 1 targets index 3: (3-2)*8 = 8.
	if insts[1].Imm != 8 {
		t.Errorf("forward JMP imm = %d, want 8", insts[1].Imm)
	}
	// JNZ at index 4 targets index 3: (3-5)*8 = -16.
	if insts[4].Imm != -16 {
		t.Errorf("backward JNZ imm = %d, want -16", insts[4].Imm)
	}
}

func TestAssemblerUndefinedLabel(t *testing.T) {
	var a Assembler
	a.Jmp("nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Error("Assemble resolved an undefined label")
	}
}

func TestAssemblerDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate label did not panic")
		}
	}()
	var a Assembler
	a.Label("x")
	a.Label("x")
}

func TestEncodeDecodeProgram(t *testing.T) {
	var a Assembler
	a.Movi(1, 100)
	a.Movi(2, 200)
	a.Add(1, 2)
	a.Sys(5)
	a.Halt()
	raw := a.MustAssemble()

	if len(raw) != 5*Size {
		t.Fatalf("assembled %d bytes, want %d", len(raw), 5*Size)
	}
	var insts []Inst
	for off := 0; off < len(raw); off += Size {
		in, err := Decode(raw[off:])
		if err != nil {
			t.Fatalf("Decode at %#x: %v", off, err)
		}
		insts = append(insts, in)
	}
	if !bytes.Equal(EncodeProgram(insts), raw) {
		t.Error("EncodeProgram of the decoded instructions != the assembled bytes")
	}
}

func TestInstStringCoversAllOps(t *testing.T) {
	for op := Op(0); op < opCount; op++ {
		s := Inst{Op: op, Ra: 1, Rb: 2, Imm: 3}.String()
		if s == "" || strings.HasPrefix(s, "OP(") {
			t.Errorf("opcode %d has no formatted mnemonic: %q", op, s)
		}
	}
	if got := Op(200).String(); got != "OP(200)" {
		t.Errorf("unknown opcode string = %q", got)
	}
}

// TestInstStringGolden pins the assembler syntax pe-inspect's -disasm prints,
// one row per operand shape Inst.String formats.
func TestInstStringGolden(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: NOP}, "NOP"},
		{Inst{Op: POPA}, "POPA"},
		{Inst{Op: MOVI, Ra: 3, Imm: -12345}, "MOVI R3, -12345"},
		{Inst{Op: SHRI, Ra: 2, Imm: 16}, "SHRI R2, 16"},
		{Inst{Op: ADD, Ra: 1, Rb: 2}, "ADD R1, R2"},
		{Inst{Op: LOADB, Ra: 0, Rb: 7, Imm: 12}, "LOADB R0, [R7+12]"},
		{Inst{Op: STOREW, Ra: 5, Rb: 6, Imm: -4}, "STOREW R5, [R6-4]"},
		{Inst{Op: LOADW, Ra: 1, Rb: 2}, "LOADW R1, [R2+0]"},
		{Inst{Op: PUSH, Ra: 7}, "PUSH R7"},
		{Inst{Op: JMPR, Ra: 4}, "JMPR R4"},
		{Inst{Op: JMP, Imm: 16}, "JMP +16"},
		{Inst{Op: CALL, Imm: -8}, "CALL -8"},
		{Inst{Op: JNZ, Ra: 4, Imm: -8}, "JNZ R4, -8"},
		{Inst{Op: JLT, Ra: 1, Rb: 2, Imm: 24}, "JLT R1, R2, +24"},
		{Inst{Op: SYS, Imm: 901}, "SYS 901"},
		{Inst{Op: Op(200), Ra: 1, Rb: 2, Imm: 3}, "OP(200) R1, R2, 3"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestPCAndLen(t *testing.T) {
	var a Assembler
	if a.PC() != 0 || a.Len() != 0 {
		t.Error("zero-value assembler not empty")
	}
	a.Nop()
	a.Nop()
	if a.PC() != 16 || a.Len() != 2 {
		t.Errorf("PC=%d Len=%d after two instructions", a.PC(), a.Len())
	}
}
