package simmpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ReportBits renders every Report field exactly, floats as bit
// patterns, so two reports compare bit for bit.
func ReportBits(rep *Report) string {
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	names := make([]string, 0, len(rep.Phases))
	for name := range rep.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%s P=%d wall=%s flops=%s comm=%s maxcomm=%s bytes=%s msgs=%d imbalance=%s",
		rep.Machine, rep.Procs, bits(rep.Wall), bits(rep.TotalFlops), bits(rep.CommFrac),
		bits(rep.MaxCommFrac), bits(rep.BytesSent), rep.Messages, bits(rep.LoadImbalance))
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%s", name, bits(rep.Phases[name]))
	}
	return b.String()
}

// LogBytes encodes every field of l, so tests outside the package can
// compare two logs byte for byte.
func LogBytes(l *OpLog) []byte {
	var b bytes.Buffer
	put := func(v any) {
		if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	put(int64(l.procs))
	for _, s := range []any{l.start, l.kind, l.arg, l.val, l.values, l.colls} {
		put(int64(binary.Size(s)))
		put(s)
	}
	for _, k := range l.kernels {
		fmt.Fprintf(&b, "%q", k.Name)
		put([]float64{k.CPUFrac, k.BytesPerFlop, k.RandomFrac, k.VectorFrac, k.MathPerFlop})
		put(int64(k.MathLib))
	}
	for _, p := range l.phases {
		fmt.Fprintf(&b, "%q", p)
	}
	return b.Bytes()
}
