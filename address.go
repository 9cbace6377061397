package mcsafe

import (
	"encoding/hex"
	"fmt"

	"mcsafe/internal/isa"
)

// CheckerVersion is an opaque token naming the checker's verdict
// semantics: it is bumped whenever a release can change any verdict,
// violation, statistic, or the wire encoding of a Result. Stored
// verdicts are keyed by it (alongside the program fingerprint and
// policy hash), so a new checker never serves a predecessor's verdicts.
// Compare it only for equality.
const CheckerVersion = "mcsafe-15"

// Hash is a stable 256-bit content address (a SHA-256 digest) used to
// identify programs and policies. Hashes are stable across processes,
// platforms, and checker releases, and collision-resistant against
// adversarially chosen inputs, so they are safe to use as persistent
// cache keys. The zero Hash means "no hash".
type Hash [32]byte

// String renders the hash as 64 lowercase hex digits.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether h is the zero ("no hash") value.
func (h Hash) IsZero() bool { return h == Hash{} }

// ParseHash parses the 64-hex-digit form String renders.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil {
		return Hash{}, fmt.Errorf("mcsafe: invalid hash %q: %v", s, err)
	}
	if len(b) != len(h) {
		return Hash{}, fmt.Errorf("mcsafe: invalid hash %q: want %d hex digits, got %d", s, 2*len(h), len(s))
	}
	copy(h[:], b)
	return h, nil
}

// Fingerprint returns the program's stable content address: a SHA-256
// digest over a canonical encoding of everything the checker sees — the
// architecture, machine words, base address, entry point, loader symbol
// tables, and source map. Two programs with equal fingerprints are
// indistinguishable to the checker, so the fingerprint (together with
// Spec.Hash and CheckerVersion) keys persistent verdict stores. The
// architecture leads the encoding: identical word sequences submitted
// under different ISAs decode to different programs and hash apart.
//
// The encoding is versioned: a future release that changes it also
// changes the digests, which simply invalidates old cache entries.
func (p *Program) Fingerprint() Hash {
	if p == nil {
		return Hash{}
	}
	return Hash(isa.Fingerprint(p.prog))
}

// Hash returns the specification's stable content address: a SHA-256
// digest over a canonical rendering of the parsed policy — types,
// entities and their typestates, constraints, the invocation
// specification, access rules, trusted functions, and frame
// annotations. Formatting and comments in the policy source do not
// perturb it. See Program.Fingerprint for how it keys verdict stores.
func (s *Spec) Hash() Hash {
	if s == nil {
		return Hash{}
	}
	return Hash(s.spec.Hash())
}
