package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// The shortest-digits float writer of the hot routes. A body of 1 000
// positions is 2 000 floats, and strconv's shortest path (Ryū plus its
// general formatter) was 41 % of query_unique's CPU. appendJSONFloat
// finds the digits with Schubfach (R. Giulietti, "The Schubfach way to
// render doubles", 2020; OpenJDK's DoubleToDecimal since JDK 19) and
// lays them out as encoding/json does, eight digits at a time.
// encoding/json stays the specification: TestJSONFloatMatchesEncodingJSON
// and FuzzJSONFloat hold the writer to json.Marshal bit pattern by bit
// pattern. Non-finite values keep the strconv path; jsonBody reports
// them as the error json.Marshal returns.

// pow10Inv holds, for k in [kMin, kMax], the 126-bit g of Schubfach's
// §9.8.3: 10^-k = β·2^r with 2^125 ≤ β < 2^126, g = ⌊β⌋ + 1, stored
// as g>>63 at 2(k-kMin) and its low 63 bits at 2(k-kMin)+1. It is built
// once at package init (≈ 0.4 ms): lazily it would land on the first
// request, and inside New on every server's set-up.
var pow10Inv = buildPow10Inv()

const (
	kMin   = -324 // flog10pow2 of the smallest exponent, 2^-1074
	kMax   = 292  // flog10pow2 of the largest, 2^971
	qMin   = -1074
	cMin   = 1 << 52 // the hidden bit
	mask63 = 1<<63 - 1
)

func buildPow10Inv() *[2 * (kMax - kMin + 1)]uint64 {
	var tab [2 * (kMax - kMin + 1)]uint64
	lo, hi := new(big.Int).Lsh(big.NewInt(1), 125), new(big.Int).Lsh(big.NewInt(1), 126)
	ten := big.NewInt(10)
	for k := kMin; k <= kMax; k++ {
		// ⌊10^-k · 2^-r⌋ with r = ⌊log2 10^-k⌋ - 125.
		r := flog2pow10(-k) - 125
		g := new(big.Int)
		switch {
		case k > 0: // 2^-r / 10^k, r < 0
			g.Quo(new(big.Int).Lsh(big.NewInt(1), uint(-r)), new(big.Int).Exp(ten, big.NewInt(int64(k)), nil))
		case r >= 0:
			g.Rsh(g.Exp(ten, big.NewInt(int64(-k)), nil), uint(r))
		default:
			g.Lsh(g.Exp(ten, big.NewInt(int64(-k)), nil), uint(-r))
		}
		if g.Cmp(lo) < 0 || g.Cmp(hi) >= 0 {
			panic("server: Schubfach table entry out of [2^125, 2^126)")
		}
		g.Add(g, big.NewInt(1))
		i := 2 * (k - kMin)
		tab[i] = new(big.Int).Rsh(g, 63).Uint64()
		tab[i+1] = g.Uint64() & mask63
	}
	return &tab
}

// flog10pow2 is ⌊log10 2^e⌋, flog10threeQuartersPow2 ⌊log10(¾·2^e)⌋ and
// flog2pow10 ⌊log2 10^e⌋, exact over the exponents a float64 has.
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }
func flog10threeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}
func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// appendJSONFloat appends f exactly as encoding/json renders a
// float64: shortest digits, 'f' notation for magnitudes in [1e-6, 1e21)
// and zero, otherwise 'e' with the exponent cleaned of its leading zero.
func appendJSONFloat(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	exp := int(u>>52) & 0x7ff
	if exp == 0x7ff {
		// NaN and ±Inf: json.Marshal refuses them (jsonBody carries the
		// error); the spelling here never reaches a client.
		return strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	if u>>63 != 0 {
		b = append(b, '-')
	}
	c := u & (cMin - 1)
	if exp == 0 && c == 0 {
		return append(b, '0')
	}
	var d uint64
	var k int
	if exp != 0 {
		d, k = shortest(exp-1075, c|cMin)
	} else {
		// Subnormal. OpenJDK widens c < 3 to two digits (4.9e-324);
		// Go writes one (5e-324), and so does shortest without that branch.
		d, k = shortest(qMin, c)
	}
	abs := math.Abs(f)
	return appendDecimal(b, d, k, abs < 1e-6 || abs >= 1e21)
}

// shortest returns the decimal d·10^k that Schubfach selects for c·2^q:
// the shortest in the rounding interval, the closer of two candidates,
// the even one on a tie. Figure 7 of the paper with figure 9's
// arithmetic, as in OpenJDK's DoubleToDecimal.toDecimal.
func shortest(q int, c uint64) (d uint64, k int) {
	out := c & 1 // the interval is closed for even c
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	if c != cMin || q == qMin {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// c = 2^52: the predecessor is half as far away as the successor.
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := uint(q + flog2pow10(-k) + 2)
	g1, g0 := pow10Inv[2*(k-kMin)], pow10Inv[2*(k-kMin)+1]
	vb := rop(g1, g0, cb<<h)
	vbl := rop(g1, g0, cbl<<h)
	vbr := rop(g1, g0, cbr<<h)

	s := vb >> 2
	if s >= 10 {
		// s' = ⌊s/10⌋; at most one of u' = 10s'·10^k and w' = u' + 10^(k+1)
		// lies in the interval, and if one does it is shorter. OpenJDK
		// asks only from s ≥ 100, because Java prints at least two
		// digits; Go prints 8e-323 where Java prints 7.9E-323.
		hi, _ := bits.Mul64(s, 115_292_150_460_684_698<<4)
		sp10 := 10 * hi
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop is round-to-odd of cp·g·2^-127, g = g1·2^63 + g0 (§9.9, figure 8).
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&mask63+mask63)>>63
}

// appendDecimal appends d·10^k (d > 0) in encoding/json's layout: 'f'
// with no exponent, or when sci is set 'e' with at least one fraction
// digit only when there is one, and an unpadded exponent.
func appendDecimal(b []byte, d uint64, k int, sci bool) []byte {
	var buf [24]byte
	lo, hi := formatDigits(&buf, d)
	n := hi - lo
	dp := len(buf) - lo + k // the decimal point's position after buf[lo]
	if sci {
		if n > 1 {
			// d.ddd: the first digit moves one place left to make room.
			buf[lo-1], buf[lo] = buf[lo], '.'
			lo--
		}
		b = append(append(b, buf[lo:hi]...), 'e')
		e := dp - 1
		if e < 0 {
			b = append(b, '-')
			e = -e
		} else {
			b = append(b, '+')
		}
		return strconv.AppendUint(b, uint64(e), 10)
	}
	switch {
	case dp <= 0:
		b = append(b, "0."...)
		for ; dp < 0; dp++ {
			b = append(b, '0')
		}
		return append(b, buf[lo:hi]...)
	case dp < n:
		// The integer digits move one place left to make room for '.'.
		for i := lo; i < lo+dp; i++ {
			buf[i-1] = buf[i]
		}
		buf[lo+dp-1] = '.'
		return append(b, buf[lo-1:hi]...)
	default:
		b = append(b, buf[lo:hi]...)
		for ; n < dp; n++ {
			b = append(b, '0')
		}
		return b
	}
}

// formatDigits writes d's decimal digits into the tail of buf, eight at
// a time, and returns where they start and where their trailing zeros
// start. d > 0, so len(buf)-lo, d's width, is at most 20.
func formatDigits(buf *[24]byte, d uint64) (lo, hi int) {
	// The width from the bit length: ⌊log10 2⌋·len is exact or one short.
	width := bits.Len64(d) * 1233 >> 12
	if d >= pow10u64[width] {
		width++
	}
	q, r := d/1e8, d%1e8
	binary.BigEndian.PutUint64(buf[16:], digits8(uint32(r)))
	if q != 0 {
		binary.BigEndian.PutUint64(buf[8:], digits8(uint32(q%1e8)))
		binary.BigEndian.PutUint64(buf[0:], digits8(uint32(q/1e8))) // d < 2^64 leaves fewer than 8 digits here
	}
	hi = len(buf)
	for buf[hi-1] == '0' {
		hi--
	}
	return len(buf) - width, hi
}

var pow10u64 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// digits8 is v < 10^8 as exactly eight ASCII digits, big-endian: four
// lookups in the two-digit table. y is v/10^6 in 16.48 fixed point,
// rounded up by less than one part in 2^21, so each multiplication by
// 100 moves the next pair of digits above the binary point intact
// (TestDigits8 runs every v).
func digits8(v uint32) uint64 {
	const frac = 1<<48 - 1
	y := uint64(v) * 281_474_977 // ⌈2^48 / 10^6⌉
	w := uint64(digitPairs[y>>48]) << 48
	y = y & frac * 100
	w |= uint64(digitPairs[y>>48]) << 32
	y = y & frac * 100
	w |= uint64(digitPairs[y>>48]) << 16
	y = y & frac * 100
	return w | uint64(digitPairs[y>>48])
}

// digitPairs[v] is v < 100 as two ASCII digits, big-endian.
var digitPairs = func() (t [100]uint16) {
	for v := range t {
		t[v] = uint16('0'+v/10)<<8 | uint16('0'+v%10)
	}
	return t
}()
