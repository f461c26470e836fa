package frame

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestReader walks one encoding of every field kind, then refuses each way a
// field can be wrong, naming the format and keeping the first failure.
func TestReader(t *testing.T) {
	magic := [4]byte{'T', 'S', 'T', '1'}
	enc := append(magic[:], 3, 0xaa, 0x01, 0x02)
	enc = AppendSection(enc, 2, "id")
	enc = AppendSection(enc, 4, []byte{9, 9, 9})
	enc = append(enc, 0, 0, 0, 0, 0, 0, 0, 7, 1, 2, 3, 4)

	r := NewReader(enc, "test: frame")
	r.Magic(magic, nil)
	r.Version(3)
	if r.U8() != 0xaa || r.U16() != 0x0102 || string(r.Section(2, 2)) != "id" ||
		!bytes.Equal(r.Section(4, 3), []byte{9, 9, 9}) || r.U64() != 7 ||
		!bytes.Equal(r.Records(2, 2), []byte{1, 2, 3, 4}) || r.Done() != nil {
		t.Fatalf("walk failed: %v", r.Err())
	}

	retired := errors.New("a retired layout")
	cases := []struct {
		name string
		read func(r *Reader)
		data []byte
		want string
	}{
		{"truncated", func(r *Reader) { r.U32() }, []byte{1, 2}, "test: frame: truncated (need 4 bytes, have 2)"},
		{"bad magic", func(r *Reader) { r.Magic(magic, nil) }, []byte("XXXX"), `test: frame: bad magic "XXXX"`},
		{"retired magic", func(r *Reader) { r.Magic(magic, retired, [4]byte{'T', 'S', 'T', '0'}) }, []byte("TST0"), "test: frame: TST0 is a retired layout"},
		{"version", func(r *Reader) { r.Version(3) }, []byte{4}, "test: frame: unsupported version 4 (want 3)"},
		{"over the cap", func(r *Reader) { r.Section(4, 3) }, []byte{0, 0, 0, 4, 1, 2, 3, 4}, "test: frame: section is 4 bytes (cap 3)"},
		{"short section", func(r *Reader) { r.Section(2, 8) }, []byte{0, 4, 1}, "test: frame: truncated (need 4 bytes, have 1)"},
		{"records", func(r *Reader) { r.Records(2, 4) }, []byte{1, 2, 3}, "test: frame: payload is 3 bytes, header claims 2 records of 4 bytes"},
		{"trailing", func(r *Reader) { r.U8(); r.Done() }, []byte{1, 2}, "test: frame: 1 trailing bytes"},
		{"first failure sticks", func(r *Reader) { r.U64(); r.Failf("later") }, nil, "test: frame: truncated (need 8 bytes, have 0)"},
	}
	for _, c := range cases {
		r := NewReader(c.data, "test: frame")
		c.read(&r)
		if r.Err() == nil || r.Err().Error() != c.want {
			t.Errorf("%s: err %v, want %q", c.name, r.Err(), c.want)
		}
	}
	r = NewReader([]byte("TST0"), "test: frame")
	if r.Magic(magic, retired, [4]byte{'T', 'S', 'T', '0'}); !errors.Is(r.Err(), retired) {
		t.Errorf("a retired magic's error does not wrap the reason: %v", r.Err())
	}
}

// TestSealOpen: Open returns what Seal sealed, and refuses a frame with any
// bit flipped or too short to hold a trailer.
func TestSealOpen(t *testing.T) {
	sealed := Seal([]byte("prefix:body"), len("prefix:"))
	body, err := Open(sealed[len("prefix:"):], "test: frame")
	if err != nil || string(body) != "body" {
		t.Fatalf("Open = %q, %v", body, err)
	}
	for i := len("prefix:"); i < len(sealed); i++ {
		bad := bytes.Clone(sealed)
		bad[i] ^= 0x10
		if _, err := Open(bad[len("prefix:"):], "test: frame"); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
			t.Errorf("byte %d flipped: %v", i, err)
		}
	}
	if _, err := Open([]byte{1, 2, 3}, "test: frame"); err == nil {
		t.Error("a 3-byte frame opened")
	}
}
