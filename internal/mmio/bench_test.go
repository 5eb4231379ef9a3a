package mmio

import (
	"bytes"
	"testing"

	"optibfs/internal/gen"
)

func benchGraphBytes(b *testing.B, write func(*bytes.Buffer) error) *bytes.Reader {
	b.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		b.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

func BenchmarkWriteReadBinary(b *testing.B) {
	g, err := gen.Graph500RMAT(1<<14, 1<<18, 1, gen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := WriteBinary(&buf, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		r := benchGraphBytes(b, func(buf *bytes.Buffer) error { return WriteBinary(buf, g) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Seek(0, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := ReadBinary(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWriteReadMatrixMarket(b *testing.B) {
	g, err := gen.Graph500RMAT(1<<12, 1<<15, 1, gen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := WriteMatrixMarket(&buf, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		r := benchGraphBytes(b, func(buf *bytes.Buffer) error { return WriteMatrixMarket(buf, g) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Seek(0, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := ReadMatrixMarket(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVerifyV2 times the load's one verification pass over a graph
// whose sections both split into chunks: "sums" is a verified load,
// "structure" the SkipVerify half alone.
func BenchmarkVerifyV2(b *testing.B) {
	g := splitCSR()
	n, m := int64(g.NumVertices()), g.NumEdges()
	h := v2Header{n: n, m: m, sec: v2Layout(n, m)}
	h.sec[0].sum, _ = scanOffsets(g.Offsets, true)
	h.sec[1].sum, _ = scanEdges(g.Edges, true)
	for _, bc := range []struct {
		name     string
		withSums bool
	}{{"sums", true}, {"structure", false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(h.sec[0].length + h.sec[1].length))
			for i := 0; i < b.N; i++ {
				if err := verifyV2Sections(g, h, bc.withSums); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
