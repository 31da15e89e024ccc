package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"parascope/internal/workloads"
)

// Program is one input program of a workload pool. Path is what the
// benchmark sends on open; a suite program keeps its workload's file
// name so the daemon supplies the workload's READ input on run.
type Program struct {
	Name   string
	Path   string
	Source string
	Input  []float64
	Lines  int
}

func newProgram(name, path, src string, input []float64) *Program {
	return &Program{Name: name, Path: path, Source: src, Input: input, Lines: strings.Count(src, "\n")}
}

// floatLit matches a plain real literal (digits, point, digits) that
// is not part of an identifier, an exponent form or a dotted operator.
var floatLit = regexp.MustCompile(`(^|[^A-Za-z0-9_.])(\d+\.\d+)($|[^A-Za-z0-9_.])`)

// perturbFloats scales every non-zero real literal by a seeded factor
// in (1, 1.01), in steps of 1e-5 so that a program with a single
// literal still has many variants. The program keeps its loop,
// subscript and call structure, so its analysis, plans and run cost
// stay those of the suite program, but its text, analysis-cache key
// and printed source are new.
func perturbFloats(src string, r *rand.Rand) string {
	return floatLit.ReplaceAllStringFunc(src, func(m string) string {
		sub := floatLit.FindStringSubmatch(m)
		v, err := strconv.ParseFloat(sub[2], 64)
		if err != nil || v == 0 {
			return m
		}
		v *= 1 + float64(1+r.Intn(999))/100000
		lit := strconv.FormatFloat(v, 'f', 9, 64)
		lit = strings.TrimRight(lit, "0")
		if strings.HasSuffix(lit, ".") {
			lit += "0"
		}
		return sub[1] + lit + sub[3]
	})
}

// synthProgram generates a multi-unit program of about lines source
// lines: a main program calling every compute subroutine, each built
// from one of five loop templates (stencil with reduction, 2-D nest,
// independent update, recurrence, and a caller of another unit), so
// the pool carries call chains, carried and loop-independent
// dependences, reductions and parallel loops at spec77 scale. The
// template sequence comes from shape, the array extent and
// coefficients from r: programs of one size share their analysis cost
// across seeds while their text differs.
func synthProgram(shape, r *rand.Rand, name string, lines int) string {
	const perUnit = 13
	units := lines / perUnit
	if units < 2 {
		units = 2
	}
	n := 200 + 10*r.Intn(20)
	var b strings.Builder
	fmt.Fprintf(&b, "      program %s\n      integer i, j\n      real a(%d), c(%d, 16), s\n", name, n, n)
	fmt.Fprintf(&b, "      do i = 1, %d\n         a(i) = real(i)*0.01\n      enddo\n", n)
	fmt.Fprintf(&b, "      do j = 1, 16\n         do i = 1, %d\n            c(i, j) = real(i + j)*0.001\n         enddo\n      enddo\n", n)
	for u := 0; u < units; u++ {
		fmt.Fprintf(&b, "      call u%d(a, c, %d)\n", u, n)
	}
	b.WriteString("      s = 0.0\n")
	fmt.Fprintf(&b, "      do i = 1, %d\n         s = s + a(i)\n      enddo\n", n)
	b.WriteString("      print *, s, c(1, 1)\n      end\n")
	coef := func() string { return fmt.Sprintf("0.%03d", 1+r.Intn(998)) }
	for u := 0; u < units; u++ {
		fmt.Fprintf(&b, "      subroutine u%d(x, y, n)\n", u)
		b.WriteString("      integer n, i, j\n      real x(n), y(n, 16), t, s\n")
		switch k := shape.Intn(5); {
		case k == 0:
			fmt.Fprintf(&b, "      s = 0.0\n      do i = 2, n\n         t = x(i)*%s + x(i-1)*%s\n         x(i) = t + %s\n         s = s + t\n      enddo\n", coef(), coef(), coef())
			fmt.Fprintf(&b, "      do i = 1, n\n         x(i) = x(i) + s*0.0001\n      enddo\n")
		case k == 1:
			fmt.Fprintf(&b, "      do j = 1, 16\n         do i = 1, n\n            y(i, j) = y(i, j)*%s + x(i)\n         enddo\n      enddo\n", coef())
			fmt.Fprintf(&b, "      t = 0.0\n      s = 0.0\n")
		case k == 2:
			fmt.Fprintf(&b, "      do i = 1, n\n         t = x(i)*%s\n         x(i) = t + y(i, 1)*%s\n      enddo\n", coef(), coef())
			fmt.Fprintf(&b, "      s = 0.0\n      t = s\n")
		case k == 3:
			fmt.Fprintf(&b, "      do i = 3, n\n         x(i) = x(i-2)*%s + x(i)*%s\n      enddo\n", coef(), coef())
			fmt.Fprintf(&b, "      do j = 2, 16\n         y(1, j) = y(1, j-1) + x(j)\n      enddo\n      s = 0.0\n")
		default:
			if u+1 < units {
				fmt.Fprintf(&b, "      do j = 1, 4\n         call u%d(x, y, n)\n      enddo\n", u+1)
			} else {
				fmt.Fprintf(&b, "      do j = 1, 4\n         x(j) = x(j) + 1.0\n      enddo\n")
			}
			fmt.Fprintf(&b, "      s = 0.0\n      do i = 1, n\n         s = s + x(i)*%s\n      enddo\n", coef())
		}
		b.WriteString("      end\n")
	}
	return b.String()
}

// runBigSource generates the run workload's large program: thirty
// four-statement loops over disjoint windows of shared arrays, about
// 120k interpreted statements, with seeded coefficients.
func runBigSource(r *rand.Rand) string {
	const loops = 30
	var b strings.Builder
	n := loops*1000 + 1000
	fmt.Fprintf(&b, "      program runbig\n      integer i\n      real a(%d), b(%d), c(%d), t\n", n, n, n)
	fmt.Fprintf(&b, "      do i = 1, %d\n         a(i) = real(mod(i, 7))*0.1\n         b(i) = 0.5\n         c(i) = 0.25\n      enddo\n", n)
	b.WriteString("      t = 0.0\n")
	sub := func(k int) string {
		switch {
		case k == 0:
			return "i"
		case k < 0:
			return fmt.Sprintf("i-%d", -k)
		default:
			return fmt.Sprintf("i+%d", k)
		}
	}
	for l := 0; l < loops; l++ {
		k := l * 1000
		c1, c2 := float64(300+r.Intn(400))/1000, float64(100+r.Intn(400))/1000
		b.WriteString("      do i = 2, 999\n")
		fmt.Fprintf(&b, "         a(%s) = a(%s)*%.3f + b(%s)\n", sub(k), sub(k-1), c1, sub(k))
		fmt.Fprintf(&b, "         b(%s) = b(%s)*%.3f + c(%s)\n", sub(k), sub(k-1), c2, sub(k))
		fmt.Fprintf(&b, "         c(%s) = c(%s)*0.5 + a(%s)*0.001\n", sub(k), sub(k-1), sub(k))
		fmt.Fprintf(&b, "         t = t + a(%s)*0.000001\n", sub(k))
		b.WriteString("      enddo\n")
	}
	b.WriteString("      print *, t, a(500), b(29500)\n      end\n")
	return b.String()
}

// suiteVariant returns a seeded variant of a suite workload.
func suiteVariant(w *workloads.Workload, r *rand.Rand) *Program {
	return newProgram(w.Name, w.Name+".f", perturbFloats(w.Source, r), w.Input)
}

// synthSizes are the line counts of the edit-session pool's
// synthesized programs: fixed across seeds, so every seed weighs the
// same size mix and only the contents change.
var synthSizes = []int{1000, 3000, 6000}

// editPool is the edit-session program pool: the nine suite programs
// (as written — their traits are the paper's) plus seeded multi-unit
// programs of 1k–6k lines.
func editPool(seed int64) []*Program {
	r := rand.New(rand.NewSource(seed))
	var out []*Program
	for _, w := range workloads.All() {
		out = append(out, newProgram(w.Name, w.Name+".f", w.Source, w.Input))
	}
	for i, n := range synthSizes {
		name := fmt.Sprintf("synth%d", i)
		shape := rand.New(rand.NewSource(int64(n)))
		out = append(out, newProgram(name, name+".f", synthProgram(shape, r, name, n), nil))
	}
	return out
}
