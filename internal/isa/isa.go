// Package isa is the architecture seam of the checker: the Arch
// interface an instruction-set front-end implements (decode, lift to
// RTL, register-file description, calling/stack convention, pipeline
// traits), the ISA-neutral Program container every later phase
// consumes, the one assembler driver and loader that build it, and the
// registry front-ends self-register into.
//
// The safety-checking pipeline (typestate propagation → annotation →
// local checking → global VC proving) is ISA-independent: it sees only
// RTL effects, the RegModel's variable naming, and the Convention's
// distinguished registers. Everything SPARC- or RISC-V-specific lives
// behind this interface, in internal/sparc and internal/riscv.
package isa

import (
	"fmt"
	"sort"
	"sync"

	"mcsafe/internal/rtl"
)

// Traits are the pipeline-shape flags of an architecture: the facts the
// control-flow and condition-generation layers must branch on because
// they change the *structure* of the analysis, not just instruction
// semantics (which RTL already carries).
type Traits struct {
	// DelaySlots reports delayed control transfer: the instruction after
	// a branch/call executes before the transfer takes effect, so the
	// CFG builder must wire delay-slot nodes (and replicate annulled
	// slots onto the taken edge).
	DelaySlots bool
	// HardwareAliasing reports that the memory subsystem may translate
	// arithmetically distinct addresses inconsistently (arXiv:1305.6431):
	// address computations must additionally be proved alias-stable, and
	// the annotator emits the "alias" condition class.
	HardwareAliasing bool
	// ByteOrder lays out multi-byte values in memory; the concrete
	// interpreter's loads and stores and the oracle's memory images go
	// through it.
	ByteOrder ByteOrder
}

// ByteOrder is the order in which an architecture lays out the bytes of
// a multi-byte value in memory. Load and Store apply it to sparse byte
// memory.
type ByteOrder uint8

const (
	// BigEndian puts the most significant byte at the lowest address.
	BigEndian ByteOrder = iota
	// LittleEndian puts the least significant byte there.
	LittleEndian
)

// Load reads the unextended size-byte value at addr.
func (o ByteOrder) Load(mem map[uint32]byte, addr uint32, size int) uint32 {
	var v uint32
	for k := range size {
		v = v<<8 | uint32(mem[o.at(addr, size, k)])
	}
	return v
}

// Store writes the low size bytes of v at addr.
func (o ByteOrder) Store(mem map[uint32]byte, addr uint32, size int, v uint32) {
	for k := size - 1; k >= 0; k-- {
		mem[o.at(addr, size, k)] = byte(v)
		v >>= 8
	}
}

// at is the address of the k-th most significant byte of the size-byte
// value at addr.
func (o ByteOrder) at(addr uint32, size, k int) uint32 {
	if o == LittleEndian {
		k = size - 1 - k
	}
	return addr + uint32(k)
}

// WindowLayout describes a windowed register file, as on SPARC:
// save/restore shift the register window, and register variables are
// depth-qualified. The zero value means "no windows".
type WindowLayout struct {
	// Out, Local, In are the first registers of the respective banks;
	// Size is the bank width (8 on SPARC). A save makes the caller's
	// outs the callee's ins.
	Out, Local, In rtl.Reg
	Size           int
	// MaxDepth is the deepest window depth whose register variables
	// the RegModel caches; deeper ones are named on demand.
	MaxDepth int
}

// Convention names the distinguished registers and stack discipline of
// an architecture's calling convention — everything the ISA-neutral
// phases need to reason about frames, calls, and trusted-function
// summaries.
type Convention struct {
	// SP and FP are the stack and frame pointers.
	SP, FP rtl.Reg
	// Link receives the return address at a call.
	Link rtl.Reg
	// RetReg carries a function result back to the caller.
	RetReg rtl.Reg
	// ArgRegs are the register-argument slots of a call, in argument
	// order (the trusted-function argument annotations index into this).
	ArgRegs []rtl.Reg
	// CallClobbered are the registers a trusted (summarized) call may
	// clobber, in the canonical order the verifier havocs them — the
	// order is part of the verdict fingerprint (fresh-variable naming)
	// and must stay stable.
	CallClobbered []rtl.Reg
	// InitRegs are the registers the host initializes before transferring
	// control (beyond explicit invocation bindings), e.g. stack and
	// return-address registers.
	InitRegs []rtl.Reg
	// MinFrame is the smallest legal stack frame in bytes; StackAlign is
	// the required frame-size alignment.
	MinFrame   int32
	StackAlign int32
	// Window is the register-window layout (zero for an unwindowed
	// register file).
	Window WindowLayout
}

// Arch is one instruction-set front-end. Implementations live in
// internal/sparc and internal/riscv and register themselves; every
// other package reaches them only through this interface.
type Arch interface {
	// Name is the stable lowercase architecture name ("sparc", "rv32i")
	// used in fingerprints, wire envelopes, and -arch flags.
	Name() string
	// Regs describes the register file and its variable naming.
	Regs() *RegModel
	// Traits are the pipeline-shape flags.
	Traits() Traits
	// Conv is the calling/stack convention.
	Conv() *Convention
	// Assemble builds a Program from assembly source: the package-level
	// Assemble run with the front-end's mnemonic parser and encoder.
	Assemble(src string, opts AsmOptions) (*Program, error)
	// Lower decodes one machine word and lifts it: its RTL, its
	// disassembly text and its return flag. It is the only way a word
	// becomes an Insn, for assembled and loaded programs alike.
	Lower(word uint32) (Insn, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Arch{}
)

// Register installs an architecture front-end under its Name. Front-ends
// call it from init(); a duplicate name is a programming error.
func Register(a Arch) {
	regMu.Lock()
	defer regMu.Unlock()
	name := a.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("isa: duplicate architecture %q", name))
	}
	registry[name] = a
}

// Get returns the architecture registered under name.
func Get(name string) (Arch, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if a, ok := registry[name]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("isa: unknown architecture %q (have %v)", name, namesLocked())
}

// Names lists the registered architectures, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
