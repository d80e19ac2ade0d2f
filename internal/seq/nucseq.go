package seq

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

// NucSeq is a nucleotide sequence in the compact 2-bit packed representation
// required by the paper's Section 4.3. The in-memory form is a single flat
// byte buffer with no internal pointers, so a NucSeq can be written to and
// read from disk with a plain copy.
//
// Wire/disk layout of the packed buffer:
//
//	byte 0       alphabet (0 = DNA, 1 = RNA)
//	bytes 1..8   length N (uint64 little endian)
//	bytes 9..    ceil(N/4) bytes of 2-bit codes, first base in the low bits
//
// The zero value is an empty DNA sequence.
type NucSeq struct {
	alpha Alphabet
	n     int
	data  []byte // 2-bit packed, low bits first
}

const nucHeaderLen = 9

// NewNucSeq parses s (letters ACGT for DNA, ACGU for RNA, case-insensitive)
// into a packed sequence under alphabet a. For AlphaDNA, 'U' is rejected;
// for AlphaRNA, 'T' is rejected.
func NewNucSeq(a Alphabet, s string) (NucSeq, error) {
	ns := NucSeq{alpha: a, n: len(s), data: make([]byte, (len(s)+3)/4)}
	for i := 0; i < len(s); i++ {
		ch := s[i]
		b, ok := baseFromLetter(ch)
		if !ok {
			return NucSeq{}, &BadLetterError{Letter: ch, Pos: i, Kind: "nucleotide"}
		}
		if (ch == 'U' || ch == 'u') && a == AlphaDNA {
			return NucSeq{}, &BadLetterError{Letter: ch, Pos: i, Kind: "nucleotide"}
		}
		if (ch == 'T' || ch == 't') && a == AlphaRNA {
			return NucSeq{}, &BadLetterError{Letter: ch, Pos: i, Kind: "nucleotide"}
		}
		ns.setBase(i, b)
	}
	return ns, nil
}

// MustNucSeq is NewNucSeq that panics on error; intended for literals in
// tests and examples.
func MustNucSeq(a Alphabet, s string) NucSeq {
	ns, err := NewNucSeq(a, s)
	if err != nil {
		panic(err)
	}
	return ns
}

// FromBases builds a sequence from raw 2-bit codes.
func FromBases(a Alphabet, bases []Base) NucSeq {
	ns := NucSeq{alpha: a, n: len(bases), data: make([]byte, (len(bases)+3)/4)}
	for i, b := range bases {
		ns.setBase(i, b)
	}
	return ns
}

func (s *NucSeq) setBase(i int, b Base) {
	shift := uint(i&3) * 2
	s.data[i>>2] = s.data[i>>2]&^(3<<shift) | byte(b&3)<<shift
}

// Len returns the number of nucleotides.
func (s NucSeq) Len() int { return s.n }

// Alphabet returns whether the sequence is DNA or RNA.
func (s NucSeq) Alphabet() Alphabet { return s.alpha }

// At returns the base at position i (0-based). It panics if i is out of
// range, matching slice-index semantics.
func (s NucSeq) At(i int) Base {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("seq: index %d out of range [0,%d)", i, s.n))
	}
	return Base(s.data[i>>2]>>(uint(i&3)*2)) & 3
}

// Slice returns the subsequence [lo,hi). It copies, so the result does not
// alias s.
func (s NucSeq) Slice(lo, hi int) NucSeq {
	if lo < 0 || hi > s.n || lo > hi {
		panic(fmt.Sprintf("seq: slice [%d:%d] out of range [0,%d]", lo, hi, s.n))
	}
	out := NucSeq{alpha: s.alpha, n: hi - lo, data: make([]byte, (hi-lo+3)/4)}
	for i := lo; i < hi; i++ {
		out.setBase(i-lo, s.At(i))
	}
	return out
}

// Append returns s with t appended. Alphabets must match.
func (s NucSeq) Append(t NucSeq) (NucSeq, error) {
	if s.alpha != t.alpha {
		return NucSeq{}, fmt.Errorf("seq: cannot append %v sequence to %v sequence", t.alpha, s.alpha)
	}
	out := NucSeq{alpha: s.alpha, n: s.n + t.n, data: make([]byte, (s.n+t.n+3)/4)}
	for i := 0; i < s.n; i++ {
		out.setBase(i, s.At(i))
	}
	for i := 0; i < t.n; i++ {
		out.setBase(s.n+i, t.At(i))
	}
	return out, nil
}

// String renders the sequence as its letter string.
func (s NucSeq) String() string {
	var sb strings.Builder
	sb.Grow(s.n)
	for i := 0; i < s.n; i++ {
		sb.WriteByte(s.alpha.Letter(s.At(i)))
	}
	return sb.String()
}

// Equal reports whether s and t have the same alphabet and bases.
func (s NucSeq) Equal(t NucSeq) bool {
	if s.alpha != t.alpha || s.n != t.n {
		return false
	}
	for i := 0; i < s.n; i++ {
		if s.At(i) != t.At(i) {
			return false
		}
	}
	return true
}

// ReverseComplement returns the reverse complement. It is only meaningful
// for DNA but is defined for RNA as well (complementing code-wise).
func (s NucSeq) ReverseComplement() NucSeq {
	out := NucSeq{alpha: s.alpha, n: s.n, data: make([]byte, len(s.data))}
	for i := 0; i < s.n; i++ {
		out.setBase(s.n-1-i, s.At(i).Complement())
	}
	return out
}

// GCContent returns the fraction of G and C bases, or 0 for the empty
// sequence. It counts over the packed bytes: C (01) and G (10) are the
// codes whose two bits differ, so x ^ x>>1 masked to the even bits has one
// set bit per G or C base. Bits past the last base are masked off.
func (s NucSeq) GCContent() float64 {
	if s.n == 0 {
		return 0
	}
	full := s.data[:s.n>>2]
	gc := 0
	for ; len(full) >= 8; full = full[8:] {
		w := binary.LittleEndian.Uint64(full)
		gc += bits.OnesCount64((w ^ w>>1) & 0x5555555555555555)
	}
	for _, b := range full {
		gc += bits.OnesCount8((b ^ b>>1) & 0x55)
	}
	if r := s.n & 3; r != 0 {
		b := s.data[s.n>>2]
		gc += bits.OnesCount8((b ^ b>>1) & 0x55 & (byte(1)<<(2*r) - 1))
	}
	return float64(gc) / float64(s.n)
}

// ToRNA returns the sequence reinterpreted under the RNA alphabet
// (transcription of the coding strand: T becomes U).
func (s NucSeq) ToRNA() NucSeq {
	out := s.clone()
	out.alpha = AlphaRNA
	return out
}

// ToDNA returns the sequence reinterpreted under the DNA alphabet.
func (s NucSeq) ToDNA() NucSeq {
	out := s.clone()
	out.alpha = AlphaDNA
	return out
}

func (s NucSeq) clone() NucSeq {
	data := make([]byte, len(s.data))
	copy(data, s.data)
	return NucSeq{alpha: s.alpha, n: s.n, data: data}
}

// Pack serializes the sequence into the flat disk layout documented on
// NucSeq.
func (s NucSeq) Pack() []byte {
	buf := make([]byte, nucHeaderLen+len(s.data))
	buf[0] = byte(s.alpha)
	binary.LittleEndian.PutUint64(buf[1:], uint64(s.n))
	copy(buf[nucHeaderLen:], s.data)
	return buf
}

// UnpackNucSeq deserializes a buffer produced by Pack. It validates the
// header and buffer length.
func UnpackNucSeq(buf []byte) (NucSeq, error) {
	if len(buf) < nucHeaderLen {
		return NucSeq{}, fmt.Errorf("seq: packed buffer too short (%d bytes)", len(buf))
	}
	if buf[0] > 1 {
		return NucSeq{}, fmt.Errorf("seq: packed buffer has invalid alphabet %d", buf[0])
	}
	n := binary.LittleEndian.Uint64(buf[1:])
	need := (int(n) + 3) / 4
	if len(buf) < nucHeaderLen+need || n > uint64(1)<<40 {
		return NucSeq{}, fmt.Errorf("seq: packed buffer truncated: header says %d bases, have %d payload bytes", n, len(buf)-nucHeaderLen)
	}
	data := make([]byte, need)
	copy(data, buf[nucHeaderLen:nucHeaderLen+need])
	return NucSeq{alpha: Alphabet(buf[0]), n: int(n), data: data}, nil
}

// IndexOf returns the first index at which pattern occurs in s, or -1.
// Alphabet is ignored for matching purposes (codes are compared).
//
// The search anchors on the pattern's first min(len, 31) bases packed into
// a word and slides it across s with an O(1) rolling update, verifying any
// tail beyond 31 bases base-by-base — linear time with a small constant
// regardless of pattern length.
func (s NucSeq) IndexOf(pattern NucSeq) int {
	if pattern.n == 0 {
		return 0
	}
	if pattern.n > s.n {
		return -1
	}
	k := pattern.n
	if k > MaxK {
		k = MaxK
	}
	anchor, _ := KmerAt(pattern, 0, k)
	found := -1
	EachKmer(s, k, func(pos int, km Kmer) bool {
		if km != anchor || pos+pattern.n > s.n {
			return true
		}
		// Verify the tail beyond the anchor (no-op when pattern fits in k).
		for j := k; j < pattern.n; j++ {
			if s.At(pos+j) != pattern.At(j) {
				return true
			}
		}
		found = pos
		return false
	})
	return found
}

// Contains reports whether pattern occurs in s.
func (s NucSeq) Contains(pattern NucSeq) bool { return s.IndexOf(pattern) >= 0 }

// CountBases returns the number of occurrences of each 2-bit code.
func (s NucSeq) CountBases() [4]int {
	var c [4]int
	for i := 0; i < s.n; i++ {
		c[s.At(i)]++
	}
	return c
}
