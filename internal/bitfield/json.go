package bitfield

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strconv"
)

// MarshalJSON encodes v as {"w":width,"b":"<base64 big-endian bytes>"},
// omitting "b" for a zero-width value.
func (v Value) MarshalJSON() ([]byte, error) {
	out := strconv.AppendInt([]byte(`{"w":`), int64(v.width), 10)
	if len(v.b) > 0 {
		out = append(out, `,"b":"`...)
		out = base64.StdEncoding.AppendEncode(out, v.b)
		out = append(out, '"')
	}
	return append(out, '}'), nil
}

// UnmarshalJSON decodes what MarshalJSON encodes. A negative width, or a
// byte count other than the width needs, is an error rather than a panic,
// so a malformed document cannot crash its reader.
func (v *Value) UnmarshalJSON(data []byte) error {
	var j struct {
		W int    `json:"w"`
		B []byte `json:"b"`
	}
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.W < 0 || len(j.B) != bytesFor(j.W) {
		return fmt.Errorf("bitfield: %d bytes for width %d", len(j.B), j.W)
	}
	*v = Value{width: j.W, b: j.B}
	v.clampTop()
	return nil
}
