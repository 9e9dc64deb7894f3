package sparse

import (
	"encoding/binary"
	"math"
)

// The decode-then-average path AverageEncoded replaced, kept as its
// oracle.

// DecodeDense parses a vector produced by Dense.Encode.
func DecodeDense(buf []byte) (Dense, error) {
	n, err := denseEncodedLen(buf, "decode dense")
	if err != nil {
		return nil, err
	}
	d := make(Dense, n)
	off := denseHeaderSize
	for i := 0; i < n; i++ {
		d[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += denseEntrySize
	}
	return d, nil
}

// Average overwrites d with the element-wise mean of d and other.
func (d Dense) Average(other Dense) {
	for i := range d {
		d[i] = 0.5 * (d[i] + other[i])
	}
}
