package dataset

import (
	"bytes"
	"testing"

	"nautilus/internal/param"
)

// FuzzReadCSV checks that arbitrary CSV input never panics the reader and
// that every accepted table is consistent: Lookup agrees with Each,
// Size+Infeasible covers the space, and WriteCSV -> ReadCSV -> WriteCSV is
// byte-stable. Over a space above the table bound every input must fail.
func FuzzReadCSV(f *testing.F) {
	space := param.MustSpace(param.Int("a", 0, 3, 1), param.Flag("b"))
	huge := param.MustSpace(param.Int("a", 0, 3, 1), param.Flag("b"),
		param.Int("c", 0, 999, 1), param.Int("d", 0, 999, 1), param.Int("e", 0, 9, 1))
	f.Add(false, []byte("a,b,luts\n0,off,100\n1,on,200\n"))
	f.Add(false, []byte(""))
	f.Add(false, []byte("a,b\n"))
	f.Add(false, []byte("x,y,z\n1,2,3\n"))
	f.Add(false, []byte("a,b,luts\n0,off,100\n0,off,200\n"))
	f.Add(false, []byte("a,b,luts\n9,off,100\n"))
	f.Add(false, []byte("a,b,luts\n0,off,not_a_number\n"))
	f.Add(false, []byte("a,b,luts,luts\n0,off,100,200\n"))
	f.Add(false, []byte("a,b,\n0,off,100\n"))
	f.Add(true, []byte("a,b,c,d,e,luts\n0,off,0,0,0,100\n"))
	f.Fuzz(func(t *testing.T, overBound bool, data []byte) {
		s := space
		if overBound {
			s = huge
		}
		ds, err := ReadCSV(s, bytes.NewReader(data))
		if overBound {
			if err == nil {
				t.Fatal("ReadCSV accepted a space above the table bound")
			}
			return
		}
		if err != nil {
			return
		}
		if ds.Size() < 1 {
			t.Fatal("accepted dataset with no points")
		}
		checkTable(t, ds)
		var first, second bytes.Buffer
		if err := ds.WriteCSV(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(space, bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadCSV rejects WriteCSV's output: %v\n%s", err, first.Bytes())
		}
		if err := back.WriteCSV(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteCSV -> ReadCSV -> WriteCSV is not stable:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}
