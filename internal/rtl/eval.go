package rtl

import "errors"

// ErrDivideByZero is returned by EvalBin for a zero divisor.
var ErrDivideByZero = errors.New("division by zero")

// EvalBin computes one ALU operation on 32-bit values. This is the
// single concrete definition of the operator semantics; the abstract
// consumers fold constants through FoldBin, which agrees bit for bit.
func EvalBin(op BinOp, a, b uint32) (uint32, error) {
	switch op {
	case Add:
		return a + b, nil
	case Sub:
		return a - b, nil
	case And:
		return a & b, nil
	case AndNot:
		return a &^ b, nil
	case Or:
		return a | b, nil
	case OrNot:
		return a | ^b, nil
	case Xor:
		return a ^ b, nil
	case XorNot:
		return ^(a ^ b), nil
	case ShL:
		return a << (b & 31), nil
	case ShRL:
		return a >> (b & 31), nil
	case ShRA:
		return uint32(int32(a) >> (b & 31)), nil
	case MulU, MulS:
		return a * b, nil
	case DivU:
		if b == 0 {
			return 0, ErrDivideByZero
		}
		return a / b, nil
	case DivS:
		if b == 0 {
			return 0, ErrDivideByZero
		}
		return uint32(int32(a) / int32(b)), nil
	}
	return 0, errors.New("rtl: unknown binary op")
}

// FoldBin is the abstract (int64) constant folding used by typestate
// propagation. The second result is false for operations whose result
// the Presburger fragment cannot track exactly (division).
func FoldBin(op BinOp, a, b int64) (int64, bool) {
	switch op {
	case Add:
		return a + b, true
	case Sub:
		return a - b, true
	case And:
		return a & b, true
	case AndNot:
		return a &^ b, true
	case Or:
		return a | b, true
	case Xor:
		return a ^ b, true
	case XorNot:
		return ^(a ^ b), true
	case ShL:
		return a << uint(b&31), true
	case ShRL:
		return int64(uint32(a) >> uint(b&31)), true
	case ShRA:
		return int64(int32(a) >> uint(b&31)), true
	case MulU, MulS:
		return a * b, true
	}
	return 0, false
}

// EvalCC computes the condition codes set by (A op B): the SPARC-style
// N/Z/V/C quadruple. Add and Sub use the arithmetic overflow and carry
// rules; the logical operations clear V and C.
func EvalCC(op BinOp, a, b uint32) (n, z, v, c bool, err error) {
	res, err := EvalBin(op, a, b)
	if err != nil {
		return false, false, false, false, err
	}
	n = res&0x80000000 != 0
	z = res == 0
	switch op {
	case Add:
		v = (a&0x80000000 == b&0x80000000) && (res&0x80000000 != a&0x80000000)
		c = uint64(a)+uint64(b) > 0xffffffff
	case Sub:
		v = (a&0x80000000 != b&0x80000000) && (res&0x80000000 == b&0x80000000)
		c = uint64(a) < uint64(b)
	}
	return n, z, v, c, nil
}

// EvalCond decides a branch condition against the condition codes.
func EvalCond(cond Cond, n, z, v, c bool) bool {
	switch cond {
	case CondAlways:
		return true
	case CondNever:
		return false
	case CondEq:
		return z
	case CondNe:
		return !z
	case CondLt:
		return n != v
	case CondGe:
		return n == v
	case CondLe:
		return z || n != v
	case CondGt:
		return !z && n == v
	case CondLtU:
		return c
	case CondGeU:
		return !c
	case CondLeU:
		return c || z
	case CondGtU:
		return !c && !z
	case CondNeg:
		return n
	case CondPos:
		return !n
	case CondOverflow:
		return v
	case CondNoOverflow:
		return !v
	}
	return false
}

// Extend truncates a loaded raw value to Size bytes and zero- or
// sign-extends it to 32 bits.
func Extend(raw uint32, size int, signed bool) uint32 {
	switch size {
	case 1:
		if signed {
			return uint32(int32(int8(raw)))
		}
		return raw & 0xff
	case 2:
		if signed {
			return uint32(int32(int16(raw)))
		}
		return raw & 0xffff
	}
	return raw
}

// EvalExpr evaluates an operand expression in a concrete pre-state:
// reg supplies register values (the executor implements the ZeroReg
// convention), pc the address of the current instruction.
func EvalExpr(e Expr, reg func(Reg) uint32, pc uint32) (uint32, error) {
	switch x := e.(type) {
	case Const:
		return uint32(x.V), nil
	case RegX:
		if x.R == ZeroReg {
			return 0, nil
		}
		return reg(x.R), nil
	case PC:
		return pc + uint32(x.Off), nil
	case Bin:
		a, err := EvalExpr(x.A, reg, pc)
		if err != nil {
			return 0, err
		}
		b, err := EvalExpr(x.B, reg, pc)
		if err != nil {
			return 0, err
		}
		return EvalBin(x.Op, a, b)
	}
	return 0, errors.New("rtl: unknown expression")
}
