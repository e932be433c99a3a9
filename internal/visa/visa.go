// Package visa defines VISA-32, a compact 32-bit virtual instruction set
// that stands in for x86 machine code inside the synthetic PE corpus.
//
// The paper's runtime-recovery technique needs a real ISA: the recovery
// module is machine code that decodes the original program at runtime, and
// the shuffle strategy permutes its instructions and re-links them with
// relative jumps, patching every relative operand for its new position.
// VISA-32 keeps those mechanics (relative branches, byte-granular
// loads/stores for self-modification, a stack for context save/restore,
// API-call traps for behaviour tracing) while staying small enough that the
// sandbox in internal/sandbox can execute whole programs in microseconds.
//
// Every instruction is exactly 8 bytes:
//
//	byte 0   opcode
//	byte 1   ra  (first register operand)
//	byte 2   rb  (second register operand)
//	byte 3   reserved, must be zero
//	byte 4-7 imm (little-endian int32)
//
// Branch targets are relative to the address of the *next* instruction,
// i.e. target = addr + Size + imm, matching x86 rel32 semantics.
package visa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Size is the fixed encoded length of every instruction, in bytes.
const Size = 8

// NumRegs is the number of general-purpose registers R0..R7.
const NumRegs = 8

// Op is an instruction opcode.
type Op uint8

// The VISA-32 instruction set.
const (
	NOP    Op = iota // no operation
	HALT             // stop execution
	MOVI             // ra = imm
	MOV              // ra = rb
	ADD              // ra += rb
	ADDI             // ra += imm
	SUB              // ra -= rb
	SUBI             // ra -= imm
	XOR              // ra ^= rb
	XORI             // ra ^= imm
	ANDI             // ra &= imm
	ORI              // ra |= imm
	SHLI             // ra <<= imm (mod 32)
	SHRI             // ra >>= imm (mod 32, logical)
	LOADB            // ra = mem8[rb+imm]
	STOREB           // mem8[rb+imm] = ra (low byte)
	LOADW            // ra = mem32[rb+imm]
	STOREW           // mem32[rb+imm] = ra
	PUSH             // push ra
	POP              // pop into ra
	PUSHA            // push R0..R7
	POPA             // pop R7..R0
	JMP              // pc = next + imm
	JZ               // if ra == 0 { pc = next + imm }
	JNZ              // if ra != 0 { pc = next + imm }
	JLT              // if ra < rb (unsigned) { pc = next + imm }
	CALL             // push next; pc = next + imm
	JMPR             // pc = ra (absolute, register-indirect)
	RET              // pop pc
	SYS              // invoke API imm with argument R0; result in R0

	opCount // sentinel; keep last
)

var opNames = [...]string{
	NOP: "NOP", HALT: "HALT", MOVI: "MOVI", MOV: "MOV", ADD: "ADD",
	ADDI: "ADDI", SUB: "SUB", SUBI: "SUBI", XOR: "XOR", XORI: "XORI",
	ANDI: "ANDI", ORI: "ORI", SHLI: "SHLI", SHRI: "SHRI", LOADB: "LOADB",
	STOREB: "STOREB", LOADW: "LOADW", STOREW: "STOREW", PUSH: "PUSH",
	POP: "POP", PUSHA: "PUSHA", POPA: "POPA", JMP: "JMP", JZ: "JZ",
	JNZ: "JNZ", JLT: "JLT", CALL: "CALL", JMPR: "JMPR", RET: "RET", SYS: "SYS",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Valid reports whether the opcode is defined.
func (o Op) Valid() bool { return o < opCount }

// Inst is one decoded instruction.
type Inst struct {
	Op  Op
	Ra  uint8
	Rb  uint8
	Imm int32
}

// String renders the instruction in assembler-like syntax.
func (i Inst) String() string {
	switch i.Op {
	case NOP, HALT, RET, PUSHA, POPA:
		return i.Op.String()
	case MOVI, ADDI, SUBI, XORI, ANDI, ORI, SHLI, SHRI:
		return fmt.Sprintf("%s R%d, %d", i.Op, i.Ra, i.Imm)
	case MOV, ADD, SUB, XOR:
		return fmt.Sprintf("%s R%d, R%d", i.Op, i.Ra, i.Rb)
	case LOADB, LOADW, STOREB, STOREW:
		return fmt.Sprintf("%s R%d, [R%d%+d]", i.Op, i.Ra, i.Rb, i.Imm)
	case PUSH, POP, JMPR:
		return fmt.Sprintf("%s R%d", i.Op, i.Ra)
	case JMP, CALL:
		return fmt.Sprintf("%s %+d", i.Op, i.Imm)
	case JZ, JNZ:
		return fmt.Sprintf("%s R%d, %+d", i.Op, i.Ra, i.Imm)
	case JLT:
		return fmt.Sprintf("%s R%d, R%d, %+d", i.Op, i.Ra, i.Rb, i.Imm)
	case SYS:
		return fmt.Sprintf("SYS %d", i.Imm)
	}
	return fmt.Sprintf("%s R%d, R%d, %d", i.Op, i.Ra, i.Rb, i.Imm)
}

// Errors returned by Decode.
var (
	ErrShort    = errors.New("visa: buffer shorter than one instruction")
	ErrBadOp    = errors.New("visa: undefined opcode")
	ErrBadReg   = errors.New("visa: register out of range")
	ErrReserved = errors.New("visa: reserved byte not zero")
)

// Encode writes the instruction into an 8-byte slice.
func (i Inst) Encode(b []byte) {
	_ = b[Size-1]
	b[0] = byte(i.Op)
	b[1] = i.Ra
	b[2] = i.Rb
	b[3] = 0
	binary.LittleEndian.PutUint32(b[4:], uint32(i.Imm))
}

// Bytes returns the 8-byte encoding of the instruction.
func (i Inst) Bytes() []byte {
	b := make([]byte, Size)
	i.Encode(b)
	return b
}

// Decode parses one instruction from the front of b.
func Decode(b []byte) (Inst, error) {
	if len(b) < Size {
		return Inst{}, fmt.Errorf("%w: %d bytes", ErrShort, len(b))
	}
	in := Inst{
		Op:  Op(b[0]),
		Ra:  b[1],
		Rb:  b[2],
		Imm: int32(binary.LittleEndian.Uint32(b[4:])),
	}
	if !in.Op.Valid() {
		return in, fmt.Errorf("%w: %d", ErrBadOp, b[0])
	}
	if in.Ra >= NumRegs || in.Rb >= NumRegs {
		return in, fmt.Errorf("%w: ra=%d rb=%d", ErrBadReg, in.Ra, in.Rb)
	}
	if b[3] != 0 {
		return in, fmt.Errorf("%w: %#x", ErrReserved, b[3])
	}
	return in, nil
}

// EncodeProgram concatenates the encodings of insts.
func EncodeProgram(insts []Inst) []byte {
	out := make([]byte, len(insts)*Size)
	for i, in := range insts {
		in.Encode(out[i*Size:])
	}
	return out
}
