// Package param models the parameter spaces exposed by hardware IP
// generators.
//
// A Space is an ordered list of named parameters; a Point is one concrete
// assignment, stored as one small integer index per parameter (the "genome"
// encoding used by the genetic-algorithm packages). The package supports
// integer ranges with stepping, power-of-two ranges, ordered and unordered
// categorical choices, and boolean flags, mirroring the kinds of parameters
// found in real IP generators such as the Stanford open-source VC router or
// the Spiral FFT generator.
package param

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the flavor of a parameter.
type Kind int

// The supported parameter kinds.
const (
	KindInt  Kind = iota // integer range with uniform stepping
	KindPow2             // powers of two between 2^minExp and 2^maxExp
	KindChoice
	KindOrderedChoice
	KindFlag
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindPow2:
		return "pow2"
	case KindChoice:
		return "choice"
	case KindOrderedChoice:
		return "ordered-choice"
	case KindFlag:
		return "flag"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Param describes a single IP generator parameter. Parameters are immutable
// after construction; all constructors panic on invalid arguments because
// parameter definitions are author-written constants, not runtime input.
type Param struct {
	name    string
	kind    Kind
	ints    []int    // materialized numeric levels (KindInt, KindPow2)
	strs    []string // labels (KindChoice, KindOrderedChoice, KindFlag)
	ordered bool
}

// Int returns an integer parameter taking the values min, min+step, ...
// up to and including max (when reachable).
func Int(name string, min, max, step int) *Param {
	if name == "" {
		panic("param: empty name")
	}
	if step <= 0 {
		panic(fmt.Sprintf("param %q: non-positive step %d", name, step))
	}
	if max < min {
		panic(fmt.Sprintf("param %q: max %d < min %d", name, max, min))
	}
	var vals []int
	for v := min; v <= max; v += step {
		vals = append(vals, v)
	}
	return &Param{name: name, kind: KindInt, ints: vals, ordered: true}
}

// Levels returns an integer parameter taking exactly the given values.
// The values must be strictly increasing.
func Levels(name string, values ...int) *Param {
	if name == "" {
		panic("param: empty name")
	}
	if len(values) == 0 {
		panic(fmt.Sprintf("param %q: no values", name))
	}
	if !sort.IntsAreSorted(values) {
		panic(fmt.Sprintf("param %q: values not sorted", name))
	}
	for i := 1; i < len(values); i++ {
		if values[i] == values[i-1] {
			panic(fmt.Sprintf("param %q: duplicate value %d", name, values[i]))
		}
	}
	vals := append([]int(nil), values...)
	return &Param{name: name, kind: KindInt, ints: vals, ordered: true}
}

// Pow2 returns a parameter taking the values 2^minExp .. 2^maxExp.
func Pow2(name string, minExp, maxExp int) *Param {
	if minExp < 0 || maxExp < minExp || maxExp > 30 {
		panic(fmt.Sprintf("param %q: bad exponent range [%d,%d]", name, minExp, maxExp))
	}
	var vals []int
	for e := minExp; e <= maxExp; e++ {
		vals = append(vals, 1<<uint(e))
	}
	return &Param{name: name, kind: KindPow2, ints: vals, ordered: true}
}

// Choice returns an unordered categorical parameter. Unordered choices have
// no numeric axis, so directional hints (bias, target stepping) do not apply
// to them unless an ordering is later established via Ordered.
func Choice(name string, values ...string) *Param {
	if name == "" {
		panic("param: empty name")
	}
	if len(values) < 2 {
		panic(fmt.Sprintf("param %q: need at least two choices", name))
	}
	seen := make(map[string]bool, len(values))
	for _, v := range values {
		if seen[v] {
			panic(fmt.Sprintf("param %q: duplicate choice %q", name, v))
		}
		seen[v] = true
	}
	return &Param{name: name, kind: KindChoice, strs: append([]string(nil), values...)}
}

// OrderedChoice returns a categorical parameter whose values carry a
// meaningful order (for example allocator variants ordered by expected clock
// frequency). The order given is the numeric axis used by directional hints.
func OrderedChoice(name string, values ...string) *Param {
	p := Choice(name, values...)
	p.kind = KindOrderedChoice
	p.ordered = true
	return p
}

// Flag returns a boolean parameter with values "off" (0) and "on" (1).
func Flag(name string) *Param {
	return &Param{
		name: name, kind: KindFlag,
		strs: []string{"off", "on"}, ordered: true,
	}
}

// Ordered returns a copy of an unordered Choice parameter whose values are
// re-declared as ordered in the sequence given. This implements the paper's
// auxiliary "ordering relationship" hint for categorical parameters. The new
// order must be a permutation of the existing values.
func (p *Param) Ordered(order ...string) *Param {
	if p.kind != KindChoice {
		panic(fmt.Sprintf("param %q: Ordered applies to unordered choices", p.name))
	}
	if len(order) != len(p.strs) {
		panic(fmt.Sprintf("param %q: ordering has %d values, want %d", p.name, len(order), len(p.strs)))
	}
	seen := make(map[string]bool, len(order))
	for _, v := range order {
		if p.indexOfString(v) < 0 {
			panic(fmt.Sprintf("param %q: unknown value %q in ordering", p.name, v))
		}
		if seen[v] {
			panic(fmt.Sprintf("param %q: duplicate value %q in ordering", p.name, v))
		}
		seen[v] = true
	}
	return &Param{
		name: p.name, kind: KindOrderedChoice,
		strs: append([]string(nil), order...), ordered: true,
	}
}

func (p *Param) indexOfString(s string) int {
	for i, v := range p.strs {
		if v == s {
			return i
		}
	}
	return -1
}

// Name returns the parameter's name.
func (p *Param) Name() string { return p.name }

// Kind returns the parameter's kind.
func (p *Param) Kind() Kind { return p.kind }

// Card returns the number of distinct values the parameter can take.
func (p *Param) Card() int {
	if len(p.ints) > 0 {
		return len(p.ints)
	}
	return len(p.strs)
}

// IsOrdered reports whether the parameter's values form a meaningful numeric
// axis, making directional hints applicable.
func (p *Param) IsOrdered() bool { return p.ordered }

// Numeric returns the numeric interpretation of value index idx and whether
// one exists. Integer and power-of-two parameters return their actual value;
// ordered choices and flags return the index along their declared order;
// unordered choices return ok=false.
func (p *Param) Numeric(idx int) (v float64, ok bool) {
	if idx < 0 || idx >= p.Card() {
		panic(fmt.Sprintf("param %q: index %d out of range [0,%d)", p.name, idx, p.Card()))
	}
	switch p.kind {
	case KindInt, KindPow2:
		return float64(p.ints[idx]), true
	case KindOrderedChoice, KindFlag:
		return float64(idx), true
	}
	return math.NaN(), false
}

// IntValue returns the integer value at index idx. It panics for categorical
// parameters; flags return 0 or 1.
func (p *Param) IntValue(idx int) int {
	if idx < 0 || idx >= p.Card() {
		panic(fmt.Sprintf("param %q: index %d out of range [0,%d)", p.name, idx, p.Card()))
	}
	switch p.kind {
	case KindInt, KindPow2:
		return p.ints[idx]
	case KindFlag:
		return idx
	}
	panic(fmt.Sprintf("param %q: IntValue on %s parameter", p.name, p.kind))
}

// StringValue returns the human-readable value at index idx.
func (p *Param) StringValue(idx int) string {
	if idx < 0 || idx >= p.Card() {
		panic(fmt.Sprintf("param %q: index %d out of range [0,%d)", p.name, idx, p.Card()))
	}
	if len(p.strs) > 0 {
		return p.strs[idx]
	}
	return fmt.Sprintf("%d", p.ints[idx])
}

// IndexOf returns the value index whose string form equals s, or -1.
func (p *Param) IndexOf(s string) int {
	if len(p.strs) > 0 {
		return p.indexOfString(s)
	}
	for i, v := range p.ints {
		if fmt.Sprintf("%d", v) == s {
			return i
		}
	}
	return -1
}

// IndexOfInt returns the value index holding integer v, or -1.
func (p *Param) IndexOfInt(v int) int {
	for i, x := range p.ints {
		if x == v {
			return i
		}
	}
	if p.kind == KindFlag && (v == 0 || v == 1) {
		return v
	}
	return -1
}

// NearestIndex returns the index of the value closest (on the numeric axis)
// to v. It panics for unordered parameters.
func (p *Param) NearestIndex(v float64) int {
	if !p.ordered {
		panic(fmt.Sprintf("param %q: NearestIndex on unordered parameter", p.name))
	}
	best, bestDist := 0, math.Inf(1)
	for i := 0; i < p.Card(); i++ {
		n, _ := p.Numeric(i)
		if d := math.Abs(n - v); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// Point is one concrete parameter assignment: Point[i] is the value index of
// the i-th parameter of its Space. Points are plain slices so they double as
// GA genomes.
type Point []int

// Clone returns an independent copy of the point.
func (pt Point) Clone() Point {
	return append(Point(nil), pt...)
}

// Equal reports whether two points assign identical value indices.
func (pt Point) Equal(other Point) bool {
	if len(pt) != len(other) {
		return false
	}
	for i := range pt {
		if pt[i] != other[i] {
			return false
		}
	}
	return true
}

// Space is an ordered collection of parameters defining an IP design space.
type Space struct {
	params []*Param
	index  map[string]int

	// Genome-hashing state, precomputed at construction (see Hash64).
	// packCards holds each parameter's cardinality as uint64 for the
	// mixed-radix pack; packable reports that the full space fits a uint64
	// flat index, making the pack injective. hashSeed decorrelates hash
	// streams across space shapes.
	packCards []uint64
	packable  bool
	hashSeed  uint64
}

// NewSpace builds a Space from the given parameters. Parameter names must be
// unique.
func NewSpace(params ...*Param) (*Space, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("param: space needs at least one parameter")
	}
	idx := make(map[string]int, len(params))
	for i, p := range params {
		if p == nil {
			return nil, fmt.Errorf("param: nil parameter at position %d", i)
		}
		if _, dup := idx[p.name]; dup {
			return nil, fmt.Errorf("param: duplicate parameter name %q", p.name)
		}
		if p.Card() > math.MaxInt32 {
			return nil, fmt.Errorf("param: parameter %q has %d values, beyond the packed-genome limit", p.name, p.Card())
		}
		idx[p.name] = i
	}
	s := &Space{params: append([]*Param(nil), params...), index: idx}
	s.initHash()
	return s, nil
}

// MustSpace is NewSpace that panics on error, for compile-time-constant
// space definitions.
func MustSpace(params ...*Param) *Space {
	s, err := NewSpace(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of parameters.
func (s *Space) Len() int { return len(s.params) }

// Param returns the i-th parameter.
func (s *Space) Param(i int) *Param { return s.params[i] }

// IndexOf returns the position of the named parameter, or -1.
func (s *Space) IndexOf(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// ByName returns the named parameter or nil.
func (s *Space) ByName(name string) *Param {
	if i, ok := s.index[name]; ok {
		return s.params[i]
	}
	return nil
}

// Names returns the parameter names in declaration order.
func (s *Space) Names() []string {
	out := make([]string, len(s.params))
	for i, p := range s.params {
		out[i] = p.name
	}
	return out
}

// Cardinality returns the total number of points in the space. It saturates
// at math.MaxUint64 on overflow.
func (s *Space) Cardinality() uint64 {
	total := uint64(1)
	for _, p := range s.params {
		c := uint64(p.Card())
		if total > math.MaxUint64/c {
			return math.MaxUint64
		}
		total *= c
	}
	return total
}

// Validate reports whether pt is a structurally valid point of the space.
func (s *Space) Validate(pt Point) error {
	if len(pt) != len(s.params) {
		return fmt.Errorf("param: point has %d genes, space has %d parameters", len(pt), len(s.params))
	}
	for i, v := range pt {
		if v < 0 || v >= s.params[i].Card() {
			return fmt.Errorf("param: gene %d (%s) index %d out of range [0,%d)",
				i, s.params[i].name, v, s.params[i].Card())
		}
	}
	return nil
}

// Random returns a uniformly random point of the space.
func (s *Space) Random(r *rand.Rand) Point {
	return s.RandomInto(r, make(Point, len(s.params)))
}

// RandomInto fills dst (which must have length Len) with a uniformly random
// point and returns it - Random without the allocation, for callers placing
// genomes into preallocated arenas. The RNG draw sequence is identical to
// Random's, so the two are interchangeable in a deterministic run.
func (s *Space) RandomInto(r *rand.Rand, dst Point) Point {
	if len(dst) != len(s.params) {
		panic(fmt.Sprintf("param: RandomInto dst has %d genes, space has %d parameters", len(dst), len(s.params)))
	}
	for i, p := range s.params {
		dst[i] = r.Intn(p.Card())
	}
	return dst
}

// PointAt returns the point with flat enumeration index n, where the last
// parameter varies fastest. n must be < Cardinality().
func (s *Space) PointAt(n uint64) Point {
	if c := s.Cardinality(); n >= c {
		panic(fmt.Sprintf("param: flat index %d out of range [0,%d)", n, c))
	}
	pt := make(Point, len(s.params))
	for i := len(s.params) - 1; i >= 0; i-- {
		c := uint64(s.params[i].Card())
		pt[i] = int(n % c)
		n /= c
	}
	return pt
}

// FlatIndex is the inverse of PointAt: one bounds-checked mixed-radix
// fold, allocation-free. Like Key it panics with Validate's error on a
// malformed point.
func (s *Space) FlatIndex(pt Point) uint64 {
	if len(pt) != len(s.params) {
		panic(s.Validate(pt))
	}
	var n uint64
	for i, v := range pt {
		if uint64(v) >= s.packCards[i] { // also catches v < 0 via wraparound
			panic(s.Validate(pt))
		}
		n = n*s.packCards[i] + uint64(v)
	}
	return n
}

// Enumerate calls yield for every point of the space in flat-index order,
// stopping early if yield returns false. The Point passed to yield is reused
// between calls; clone it to retain it.
func (s *Space) Enumerate(yield func(Point) bool) {
	pt := make(Point, len(s.params))
	for {
		if !yield(pt) {
			return
		}
		i := len(pt) - 1
		for i >= 0 {
			pt[i]++
			if pt[i] < s.params[i].Card() {
				break
			}
			pt[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// Key returns a canonical, compact string key for the point, suitable for
// map keys and dataset files.
func (s *Space) Key(pt Point) string {
	if err := s.Validate(pt); err != nil {
		panic(err)
	}
	// Keys are built once per dispatched design point, so this is one of
	// the search's hottest paths: strconv into a preallocated buffer, not
	// fmt, keeps it to a single allocation.
	buf := make([]byte, 0, 8*len(pt))
	for i, v := range pt {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}

// ParseKey is the inverse of Key. Only the canonical encoding Key emits is
// accepted: each gene must be a bare decimal with no sign, whitespace, or
// leading zeros. ParseKey sits on every cache-restore path, so it parses
// with strconv rather than fmt scanning.
func (s *Space) ParseKey(key string) (Point, error) {
	parts := strings.Split(key, ",")
	if len(parts) != len(s.params) {
		return nil, fmt.Errorf("param: key %q has %d genes, want %d", key, len(parts), len(s.params))
	}
	pt := make(Point, len(parts))
	for i, part := range parts {
		v, err := parseGene(part)
		if err != nil {
			return nil, fmt.Errorf("param: bad gene %q in key: %v", part, err)
		}
		pt[i] = v
	}
	if err := s.Validate(pt); err != nil {
		return nil, err
	}
	return pt, nil
}

// parseGene parses one canonical gene encoding: ASCII digits only, no sign,
// no whitespace, no leading zeros (the forms Key never emits).
func parseGene(g string) (int, error) {
	if g == "" {
		return 0, fmt.Errorf("empty gene")
	}
	if g[0] < '0' || g[0] > '9' {
		return 0, fmt.Errorf("non-canonical encoding")
	}
	if g[0] == '0' && len(g) > 1 {
		return 0, fmt.Errorf("non-canonical leading zero")
	}
	return strconv.Atoi(g)
}

// Describe renders the point as "name=value name=value ..." for logs and CLI
// output.
func (s *Space) Describe(pt Point) string {
	if err := s.Validate(pt); err != nil {
		return fmt.Sprintf("<invalid point: %v>", err)
	}
	var b strings.Builder
	for i, p := range s.params {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", p.name, p.StringValue(pt[i]))
	}
	return b.String()
}

// Int returns the integer value assigned to the named parameter.
func (s *Space) Int(pt Point, name string) int {
	return s.mustParam(name).IntValue(pt[s.index[name]])
}

// String returns the string value assigned to the named parameter.
func (s *Space) String(pt Point, name string) string {
	return s.mustParam(name).StringValue(pt[s.index[name]])
}

// Bool returns the value of the named flag parameter.
func (s *Space) Bool(pt Point, name string) bool {
	p := s.mustParam(name)
	if p.kind != KindFlag {
		panic(fmt.Sprintf("param %q: Bool on %s parameter", name, p.kind))
	}
	return pt[s.index[name]] == 1
}

// Set returns a copy of pt with the named parameter set to the value whose
// string form is value. It panics if the parameter or value is unknown;
// intended for tests and example programs.
func (s *Space) Set(pt Point, name, value string) Point {
	p := s.mustParam(name)
	idx := p.IndexOf(value)
	if idx < 0 {
		panic(fmt.Sprintf("param %q: unknown value %q", name, value))
	}
	out := pt.Clone()
	out[s.index[name]] = idx
	return out
}

func (s *Space) mustParam(name string) *Param {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("param: unknown parameter %q", name))
	}
	return s.params[i]
}
