// Command m2pgen emits the order-specialised M2P kernels of package
// multipole (m2p_gen.go) from the package's own index tables, the way the
// paper's interaction routines are emitted by a computer-algebra system.
//
// For each truncation order q it unrolls exactly what the table-interpreted
// path executes — DerivativesInto over IndexTable.DRec up to order q+1, then
// the Coef/Raise contraction with the moments — into straight-line code over
// local variables: the same floating-point operations in the same order, so
// kernel and table path agree bit for bit where the compiler does not fuse
// multiply-adds.  Run through `go generate ./internal/multipole/...`, which
// writes m2p_gen.go into the package directory.
//
// The generator imports the package it generates for, so the checked-in
// m2p_gen.go has to compile for it to run; CI regenerates and fails on a diff.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strconv"

	"twohot/internal/multipole"
)

// maxOrder is the highest truncation order specialised: the tree's default
// expansion order (hexadecapole), which bounds every q a production walk
// evaluates.
const maxOrder = 4

func main() {
	var b bytes.Buffer
	b.WriteString("// Code generated by m2pgen; DO NOT EDIT.\n\n")
	b.WriteString("package multipole\n\nimport \"math\"\n\n")
	fmt.Fprintf(&b, "// MaxGeneratedOrder is the highest truncation order with a generated\n// straight-line M2P kernel; higher orders run the table-interpreted path.\nconst MaxGeneratedOrder = %d\n\n", maxOrder)
	b.WriteString("// m2pKernels[q] evaluates moments m, truncated at order q, at separation\n// (x, y, z) = sink - center, returning the kernel sum and its gradient.\n// Scalars in, scalars out: arrays would travel through memory.\n")
	b.WriteString("var m2pKernels = [MaxGeneratedOrder + 1]func(m []float64, x, y, z float64) (phi, ax, ay, az float64){")
	for q := 0; q <= maxOrder; q++ {
		fmt.Fprintf(&b, "m2p%d, ", q)
	}
	b.WriteString("}\n")
	for q := 0; q <= maxOrder; q++ {
		kernel(&b, q)
	}

	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("m2pgen: generated code does not parse: %v", err)
	}
	if err := os.WriteFile("m2p_gen.go", src, 0o644); err != nil {
		log.Fatalf("m2pgen: %v", err)
	}
}

var axes = [3]string{"x", "y", "z"}

// kernel emits m2p<q>: the derivative tensor of 1/r to order q+1 as locals
// d0, d1, ..., then the contraction of the moments of order <= q.
func kernel(b *bytes.Buffer, q int) {
	t := multipole.Table(q + 1)
	nm := multipole.NumTerms(q)
	fmt.Fprintf(b, "\n// m2p%d is the M2P kernel truncated at order %d: moments m[:%d] against the\n// %d derivatives of 1/r up to order %d.\n", q, q, nm, len(t.Idx), q+1)
	fmt.Fprintf(b, "func m2p%d(m []float64, x, y, z float64) (phi, ax, ay, az float64) {\n", q)
	fmt.Fprintf(b, "\t_ = m[%d]\n", nm-1)
	b.WriteString("\tr2 := x*x + y*y + z*z\n")
	b.WriteString("\tif r2 == 0 {\n\t\tpanic(\"multipole: Derivatives at zero separation\")\n\t}\n")
	b.WriteString("\tinvR2 := 1 / r2\n\td0 := 1 / math.Sqrt(r2)\n")
	for n := 1; n <= q+1; n++ {
		fmt.Fprintf(b, "\ts%d := invR2 / %d\n", n, n)
		for i := t.Offset[n]; i < t.Offset[n+1]; i++ {
			fmt.Fprintf(b, "\td%d := (", i)
			for k, term := range t.DRec[i] {
				if k > 0 {
					b.WriteString(" + ")
				}
				fmt.Fprintf(b, "%s*d%d", strconv.FormatFloat(term.Coef, 'g', -1, 64), term.Src)
				if term.Axis >= 0 {
					b.WriteString("*" + axes[term.Axis])
				}
			}
			fmt.Fprintf(b, ") * s%d\n", n)
		}
	}
	// The named results start from +0 like the table path's zero Result and
	// every term is added to them, so an all-zero expansion yields +0, never
	// the -0 a bare first product could be.
	b.WriteString("\tvar c float64\n")
	for i := 0; i < nm; i++ {
		fmt.Fprintf(b, "\tc = %s\n", coefTimesMoment(t, i))
		fmt.Fprintf(b, "\tphi += c * d%d\n", i)
		fmt.Fprintf(b, "\tax += c * d%d\n\tay += c * d%d\n\taz += c * d%d\n", t.Raise[i][0], t.Raise[i][1], t.Raise[i][2])
	}
	b.WriteString("\treturn phi, ax, ay, az\n}\n")
}

// coefTimesMoment renders Coef[i]*m[i] with Coef[i] = (-1)^|alpha| / alpha!
// written as an exact constant expression.
func coefTimesMoment(t *multipole.IndexTable, i int) string {
	sign := ""
	if t.Idx[i].Order()%2 == 1 {
		sign = "-"
	}
	if t.AFact[i] == 1 {
		return fmt.Sprintf("%sm[%d]", sign, i)
	}
	return fmt.Sprintf("(%s1.0 / %s) * m[%d]", sign, strconv.FormatFloat(t.AFact[i], 'g', -1, 64), i)
}
