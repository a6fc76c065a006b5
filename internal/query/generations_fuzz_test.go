package query

import (
	"reflect"
	"testing"
)

// FuzzDecodeGenerations pins the SFGE generations file's trust story:
// the file is read back from disk at startup, so decodeGenerations must
// never panic on any bytes, and any table it accepts must survive an
// encodeGenerations round trip unchanged.
func FuzzDecodeGenerations(f *testing.F) {
	valid := encodeGenerations(map[string]uint64{"GrQc": 3, "tiny": 1, "": 7})
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(genMagic))
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		gens, err := decodeGenerations(data)
		if err != nil {
			return
		}
		again, err := decodeGenerations(encodeGenerations(gens))
		if err != nil {
			t.Fatalf("re-encoded table does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, gens) {
			t.Fatalf("round trip changed the table: %v -> %v", gens, again)
		}
	})
}
