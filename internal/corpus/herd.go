package corpus

import (
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"

	"tricheck/internal/c11"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
)

// This file implements the on-disk .litmus exchange format: the C
// flavour of the herd litmus format (as consumed by herd7 and produced
// by the diy generators), which is the lingua franca for machine-checked
// memory-model test corpora. A generated test renders as:
//
//	C mp-rlx.rlx.rlx.rlx
//	(* tricheck: name=mp[rlx,rlx,rlx,rlx] family=mp observers=1:r0,1:r1 *)
//	{}
//
//	P0 (atomic_int* x, atomic_int* y) {
//	  atomic_store_explicit(x, 1, memory_order_relaxed);
//	  atomic_store_explicit(y, 1, memory_order_relaxed);
//	}
//
//	P1 (atomic_int* x, atomic_int* y) {
//	  int r0 = atomic_load_explicit(y, memory_order_relaxed);
//	  int r1 = atomic_load_explicit(x, memory_order_relaxed);
//	}
//
//	exists (1:r0=1 /\ 1:r1=0)
//
// The `(* tricheck: ... *)` comment is optional metadata that preserves
// the exact generator name, litmus family and observer list across a
// round trip; herd tools ignore it as a comment, and Parse reconstructs
// all three from the surrounding file when it is absent.
//
// Supported statement subset: atomic_{load,store}_explicit,
// atomic_fetch_add_explicit, atomic_exchange_explicit,
// atomic_thread_fence, non-atomic *x accesses, register data operands
// (data dependencies), `(atomic_int*)r` addresses (address
// dependencies), and `if (r)` statement prefixes (control
// dependencies; note herd gives these genuine conditional semantics
// while TriCheck's evaluators treat them as dependency edges only).

// orderName maps a C11 order to its <stdatomic.h> spelling.
func orderName(o c11.Order) (string, error) {
	switch o {
	case c11.Rlx:
		return "memory_order_relaxed", nil
	case c11.Acq:
		return "memory_order_acquire", nil
	case c11.Rel:
		return "memory_order_release", nil
	case c11.AcqRel:
		return "memory_order_acq_rel", nil
	case c11.SC:
		return "memory_order_seq_cst", nil
	}
	return "", fmt.Errorf("corpus: order %s has no memory_order spelling", o)
}

func orderOf(s string) (c11.Order, error) {
	switch s {
	case "memory_order_relaxed":
		return c11.Rlx, nil
	case "memory_order_acquire":
		return c11.Acq, nil
	case "memory_order_release":
		return c11.Rel, nil
	case "memory_order_acq_rel":
		return c11.AcqRel, nil
	case "memory_order_seq_cst":
		return c11.SC, nil
	}
	return 0, fmt.Errorf("corpus: unknown memory order %q", s)
}

// SanitizeName renders a generator test name ("mp[rlx,sc]") as a
// herd-friendly identifier ("mp-rlx.sc"), also used for file names.
func SanitizeName(s string) string {
	return strings.NewReplacer("[", "-", "]", "", ",", ".", " ", "").Replace(s)
}

var (
	// unsafeNameChars is what safeName strips from emitted headers: a
	// header name containing "(*" or "*)" would corrupt the comment
	// structure of the emitted file.
	unsafeNameChars = regexp.MustCompile(`[^\w.+-]`)
	// metaSafeRe bounds what may appear as a metadata value: generator
	// names ("mp[rlx,sc]") pass through exactly; anything that could
	// break the whitespace-split key=value metadata syntax (or the
	// comment itself) is sanitized first.
	metaSafeRe = regexp.MustCompile(`^[\w.\[\],+-]+$`)
	// identRe is a herd identifier (location and register names).
	identRe = regexp.MustCompile(`^\w+$`)
)

// safeName renders any test name as a herd-safe identifier: the
// SanitizeName rewriting plus replacement of every remaining character
// that could corrupt the emitted file. Idempotent, so emit→parse→emit
// reaches a byte fixed point even for hostile names.
func safeName(s string) string {
	s = unsafeNameChars.ReplaceAllString(SanitizeName(s), "-")
	if s == "" {
		return "test"
	}
	return s
}

// metaValue returns a value safe to embed in the tricheck metadata
// comment, preserving it exactly when possible.
func metaValue(s string) string {
	if s == "" || metaSafeRe.MatchString(s) {
		return s
	}
	return safeName(s)
}

// EmitString renders a test in the herd C litmus format. The rendering
// is deterministic: emitting, parsing and emitting again yields
// byte-identical output.
func EmitString(t *litmus.Test) (string, error) {
	mp := t.Prog.Mem()
	// Location names and observer labels become C identifiers in the
	// emitted file; anything else would silently produce an unparseable
	// (or differently-parsed) file.
	for _, l := range mp.LocNames {
		if !identRe.MatchString(l) {
			return "", fmt.Errorf("corpus: %s: location name %q is not an identifier", t.Name, l)
		}
	}
	for _, o := range mp.Observers {
		if !identRe.MatchString(o.Label) {
			return "", fmt.Errorf("corpus: %s: observer label %q is not an identifier", t.Name, o.Label)
		}
	}
	var b strings.Builder

	// Variable names: observed registers take their outcome label, the
	// rest get a positional name.
	varName := map[[2]int]string{}
	for _, o := range mp.Observers {
		varName[[2]int{o.Thread, o.Reg}] = o.Label
	}
	name := func(th int, reg int) string {
		if n, ok := varName[[2]int{th, reg}]; ok {
			return n
		}
		n := fmt.Sprintf("t%dr%d", th, reg)
		varName[[2]int{th, reg}] = n
		return n
	}

	fmt.Fprintf(&b, "C %s\n", safeName(t.Name))
	var obsMeta []string
	for _, o := range mp.Observers {
		obsMeta = append(obsMeta, fmt.Sprintf("%d:%s", o.Thread, o.Label))
	}
	for _, o := range mp.MemObservers {
		if mp.LocName(o.Loc) != o.Label {
			return "", fmt.Errorf("corpus: memory observer label %q differs from location name %q", o.Label, mp.LocName(o.Loc))
		}
		obsMeta = append(obsMeta, "m:"+o.Label)
	}
	family := ""
	if t.Shape != nil {
		family = t.Shape.Name
	}
	fmt.Fprintf(&b, "(* tricheck: name=%s family=%s observers=%s *)\n",
		metaValue(t.Name), metaValue(family), strings.Join(obsMeta, ","))
	b.WriteString("{}\n")

	params := make([]string, len(mp.LocNames))
	for i, l := range mp.LocNames {
		params[i] = "atomic_int* " + l
	}
	for th, ops := range t.Prog.Ops {
		fmt.Fprintf(&b, "\nP%d (%s) {\n", th, strings.Join(params, ", "))
		for _, op := range ops {
			stmt, err := emitStmt(mp, th, op, name)
			if err != nil {
				return "", fmt.Errorf("corpus: %s: %w", t.Name, err)
			}
			fmt.Fprintf(&b, "  %s\n", stmt)
		}
		b.WriteString("}\n")
	}

	exists, err := emitExists(t, mp)
	if err != nil {
		return "", err
	}
	if exists != "" {
		fmt.Fprintf(&b, "\nexists (%s)\n", exists)
	}
	return b.String(), nil
}

func emitStmt(mp *mem.Program, th int, op c11.Op, name func(int, int) string) (string, error) {
	addr := func(o mem.Operand, atomic bool) string {
		if o.Kind == mem.OpReg {
			if atomic {
				return "(atomic_int*)" + name(th, o.Reg)
			}
			return "(int*)" + name(th, o.Reg)
		}
		return mp.LocName(mem.Loc(o.Const))
	}
	val := func(o mem.Operand) string {
		if o.Kind == mem.OpReg {
			return name(th, o.Reg)
		}
		return strconv.FormatInt(o.Const, 10)
	}
	var stmt string
	switch op.Kind {
	case c11.OpLoad:
		if op.Ord == c11.NA {
			if op.Addr.Kind == mem.OpReg {
				stmt = fmt.Sprintf("int %s = *%s;", name(th, op.Dst), addr(op.Addr, false))
			} else {
				stmt = fmt.Sprintf("int %s = *%s;", name(th, op.Dst), addr(op.Addr, true))
			}
		} else {
			mo, err := orderName(op.Ord)
			if err != nil {
				return "", err
			}
			stmt = fmt.Sprintf("int %s = atomic_load_explicit(%s, %s);", name(th, op.Dst), addr(op.Addr, true), mo)
		}
	case c11.OpStore:
		if op.Ord == c11.NA {
			stmt = fmt.Sprintf("*%s = %s;", addr(op.Addr, true), val(op.Data))
		} else {
			mo, err := orderName(op.Ord)
			if err != nil {
				return "", err
			}
			stmt = fmt.Sprintf("atomic_store_explicit(%s, %s, %s);", addr(op.Addr, true), val(op.Data), mo)
		}
	case c11.OpRMW:
		mo, err := orderName(op.Ord)
		if err != nil {
			return "", err
		}
		fn := "atomic_fetch_add_explicit"
		if op.RMWOp == mem.RMWSwap {
			fn = "atomic_exchange_explicit"
		}
		stmt = fmt.Sprintf("int %s = %s(%s, %s, %s);", name(th, op.Dst), fn, addr(op.Addr, true), val(op.Data), mo)
	case c11.OpFence:
		mo, err := orderName(op.Ord)
		if err != nil {
			return "", err
		}
		stmt = fmt.Sprintf("atomic_thread_fence(%s);", mo)
	default:
		return "", fmt.Errorf("unsupported op kind %d", op.Kind)
	}
	if len(op.CtrlDepOn) > 0 {
		prefix := ""
		for _, dep := range op.CtrlDepOn {
			prefix += fmt.Sprintf("if (%s) ", name(th, mp.Threads[th][dep].Dst))
		}
		stmt = prefix + stmt
	}
	return stmt, nil
}

// emitExists renders the test's specified outcome as a herd exists
// clause, resolving each outcome label to its observer.
func emitExists(t *litmus.Test, mp *mem.Program) (string, error) {
	if t.Specified == "" {
		return "", nil
	}
	threadOf := map[string]int{}
	for _, o := range mp.Observers {
		threadOf[o.Label] = o.Thread
	}
	memLabel := map[string]bool{}
	for _, o := range mp.MemObservers {
		memLabel[o.Label] = true
	}
	var clauses []string
	for _, part := range strings.Split(string(t.Specified), ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		label, value, ok := strings.Cut(part, "=")
		if !ok {
			return "", fmt.Errorf("corpus: %s: malformed outcome clause %q", t.Name, part)
		}
		label, value = strings.TrimSpace(label), strings.TrimSpace(value)
		switch {
		case memLabel[label]:
			clauses = append(clauses, fmt.Sprintf("%s=%s", label, value))
		default:
			th, ok := threadOf[label]
			if !ok {
				return "", fmt.Errorf("corpus: %s: outcome label %q has no observer", t.Name, label)
			}
			clauses = append(clauses, fmt.Sprintf("%d:%s=%s", th, label, value))
		}
	}
	return strings.Join(clauses, " /\\ "), nil
}

var (
	procRe     = regexp.MustCompile(`^P(\d+)\s*\((.*)\)\s*\{$`)
	loadRe     = regexp.MustCompile(`^int\s+(\w+)\s*=\s*atomic_load_explicit\(\s*(.+?)\s*,\s*(\w+)\s*\)\s*;$`)
	storeRe    = regexp.MustCompile(`^atomic_store_explicit\(\s*(.+?)\s*,\s*(\w+)\s*,\s*(\w+)\s*\)\s*;$`)
	rmwRe      = regexp.MustCompile(`^int\s+(\w+)\s*=\s*(atomic_fetch_add_explicit|atomic_exchange_explicit)\(\s*(.+?)\s*,\s*(\w+)\s*,\s*(\w+)\s*\)\s*;$`)
	fenceRe    = regexp.MustCompile(`^atomic_thread_fence\(\s*(\w+)\s*\)\s*;$`)
	naLoadRe   = regexp.MustCompile(`^int\s+(\w+)\s*=\s*\*\s*(.+?)\s*;$`)
	naStoreRe  = regexp.MustCompile(`^\*\s*(.+?)\s*=\s*(\w+)\s*;$`)
	ifRe       = regexp.MustCompile(`^if\s*\(\s*(\w+)\s*\)\s*(.*)$`)
	regClause  = regexp.MustCompile(`^(\d+):(\w+)=(-?\d+)$`)
	memClause  = regexp.MustCompile(`^(\w+)=(-?\d+)$`)
	commentRe  = regexp.MustCompile(`(?s)\(\*.*?\*\)`)
	tricheckRe = regexp.MustCompile(`(?s)\(\*\s*tricheck:\s*(.*?)\s*\*\)`)
)

// parseState accumulates one test while scanning a .litmus file.
type herdParser struct {
	name     string
	family   string
	obsMeta  []string
	locs     []string
	locOf    map[string]int
	prog     *c11.Program
	thread   int
	nextProc int
	regOf    map[int]map[string]int // thread → var name → register
	regOpIdx map[int]map[string]int // thread → var name → defining op index
	nextReg  map[int]int
	exists   []string // raw clauses in file order
}

// Parse reads one herd C litmus test.
func Parse(r io.Reader) (*litmus.Test, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(data))
}

// ParseString parses a herd C litmus test from a string. Both `exists`
// and `~exists` final-state conditions become the test's designated
// interesting outcome (TriCheck classifies the outcome on each side of
// the stack rather than asserting the quantifier); `forall` conditions
// are rejected.
func ParseString(src string) (*litmus.Test, error) {
	t, _, err := parseWithMeta(src)
	return t, err
}

// ParseStrings parses a batch of independent herd C litmus sources — a
// verification request's payload — attributing any error to its index
// in the batch.
func ParseStrings(srcs []string) ([]*litmus.Test, error) {
	tests := make([]*litmus.Test, 0, len(srcs))
	for i, src := range srcs {
		t, err := ParseString(src)
		if err != nil {
			return nil, fmt.Errorf("corpus: litmus source %d: %w", i, err)
		}
		tests = append(tests, t)
	}
	return tests, nil
}

// parseWithMeta additionally reports whether the family came from an
// explicit tricheck metadata comment (the corpus loader gives an
// explicit family precedence over the directory layout; a guessed one
// yields to it).
func parseWithMeta(src string) (*litmus.Test, bool, error) {
	p := &herdParser{
		locOf:    map[string]int{},
		thread:   -1,
		regOf:    map[int]map[string]int{},
		regOpIdx: map[int]map[string]int{},
		nextReg:  map[int]int{},
	}
	meta := map[string]string{}
	if m := tricheckRe.FindStringSubmatch(src); m != nil {
		for _, kv := range strings.Fields(m[1]) {
			if k, v, ok := strings.Cut(kv, "="); ok {
				meta[k] = v
			}
		}
	}
	src = commentRe.ReplaceAllString(src, "")

	lines := strings.Split(src, "\n")
	i := 0
	next := func() (string, bool) {
		for i < len(lines) {
			l := strings.TrimSpace(lines[i])
			i++
			if l != "" {
				return l, true
			}
		}
		return "", false
	}

	// Header: "C <name>" (other arch headers are not C11 tests).
	l, ok := next()
	if !ok {
		return nil, false, fmt.Errorf("corpus: empty litmus file")
	}
	arch, name, ok := strings.Cut(l, " ")
	if !ok || arch != "C" {
		return nil, false, fmt.Errorf("corpus: want header \"C <name>\", got %q", l)
	}
	p.name = strings.TrimSpace(name)
	if p.name == "" {
		return nil, false, fmt.Errorf("corpus: empty test name")
	}

	// Pre-scan every thread header so all parameter locations exist
	// before the first body is parsed — threads need not repeat an
	// identical parameter list (herd permits asymmetric ones).
	for _, pl := range lines[i:] {
		if m := procRe.FindStringSubmatch(strings.TrimSpace(pl)); m != nil {
			if err := p.declareParams(m[2]); err != nil {
				return nil, false, err
			}
		}
	}

	for {
		l, ok := next()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(l, "{"):
			// Init block; possibly spanning lines until the closing '}'.
			body := strings.TrimPrefix(l, "{")
			for !strings.Contains(body, "}") {
				nl, ok := next()
				if !ok {
					return nil, false, fmt.Errorf("corpus: unterminated init block")
				}
				body += " " + nl
			}
			body = body[:strings.Index(body, "}")]
			if err := p.init(body); err != nil {
				return nil, false, err
			}
		case procRe.MatchString(l):
			m := procRe.FindStringSubmatch(l)
			th, _ := strconv.Atoi(m[1])
			if err := p.beginProc(th, m[2]); err != nil {
				return nil, false, err
			}
			for {
				sl, ok := next()
				if !ok {
					return nil, false, fmt.Errorf("corpus: unterminated P%d body", th)
				}
				if sl == "}" {
					break
				}
				if err := p.stmt(sl); err != nil {
					return nil, false, fmt.Errorf("corpus: P%d: %w", th, err)
				}
			}
			if th >= len(p.prog.Ops) || len(p.prog.Ops[th]) == 0 {
				return nil, false, fmt.Errorf("corpus: thread P%d has no statements", th)
			}
		case strings.HasPrefix(l, "forall"):
			return nil, false, fmt.Errorf("corpus: forall final-state conditions are not supported (only exists/~exists)")
		case strings.HasPrefix(l, "exists"), strings.HasPrefix(l, "~exists"):
			clause := l[strings.Index(l, "exists")+len("exists"):]
			for !strings.Contains(clause, ")") && i < len(lines) {
				nl, _ := next()
				clause += " " + nl
			}
			clause = strings.TrimSpace(clause)
			clause = strings.TrimPrefix(clause, "(")
			if j := strings.LastIndex(clause, ")"); j >= 0 {
				clause = clause[:j]
			}
			for _, c := range strings.Split(clause, "/\\") {
				if c = strings.TrimSpace(c); c != "" {
					p.exists = append(p.exists, c)
				}
			}
		case strings.HasPrefix(l, "locations"):
			// herd final-state location listings: ignored.
		default:
			return nil, false, fmt.Errorf("corpus: unrecognised line %q", l)
		}
	}
	return p.finish(meta)
}

func (p *herdParser) init(body string) error {
	for _, item := range strings.Split(body, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		item = strings.TrimPrefix(item, "int ")
		item = strings.TrimPrefix(item, "atomic_int ")
		name, value, ok := strings.Cut(item, "=")
		if !ok {
			return fmt.Errorf("corpus: malformed init %q", item)
		}
		name, value = strings.TrimSpace(name), strings.TrimSpace(value)
		if strings.Contains(name, ":") {
			return fmt.Errorf("corpus: register init %q is not supported", item)
		}
		if value != "0" {
			return fmt.Errorf("corpus: non-zero init %q is not supported (TriCheck memory starts zeroed)", item)
		}
		if _, err := p.declareLoc(name); err != nil {
			return err
		}
	}
	return nil
}

func (p *herdParser) declareLoc(name string) (int, error) {
	if !identRe.MatchString(name) {
		return 0, fmt.Errorf("corpus: location name %q is not an identifier", name)
	}
	if id, ok := p.locOf[name]; ok {
		return id, nil
	}
	p.locOf[name] = len(p.locs)
	p.locs = append(p.locs, name)
	return len(p.locs) - 1, nil
}

// declareParams declares every location named by a thread header's
// parameter list.
func (p *herdParser) declareParams(params string) error {
	for _, prm := range strings.Split(params, ",") {
		prm = strings.TrimSpace(prm)
		if prm == "" {
			continue
		}
		fields := strings.Fields(prm)
		if _, err := p.declareLoc(strings.TrimPrefix(fields[len(fields)-1], "*")); err != nil {
			return err
		}
	}
	return nil
}

func (p *herdParser) beginProc(th int, params string) error {
	if th != p.nextProc {
		return fmt.Errorf("corpus: thread header P%d out of order (want P%d: threads number densely from 0)", th, p.nextProc)
	}
	p.nextProc++
	if err := p.declareParams(params); err != nil {
		return err
	}
	if p.prog == nil {
		p.prog = c11.New(len(p.locs), p.locs...)
	}
	p.thread = th
	if p.regOf[th] == nil {
		p.regOf[th] = map[string]int{}
		p.regOpIdx[th] = map[string]int{}
	}
	return nil
}

// addr parses a location-pointer argument: "x", "&x", "(atomic_int*)r0"
// or "(int*)r0".
func (p *herdParser) addr(s string) (mem.Operand, error) {
	s = strings.TrimSpace(s)
	for _, cast := range []string{"(atomic_int*)", "(int*)"} {
		if rest, ok := strings.CutPrefix(s, cast); ok {
			reg, ok := p.regOf[p.thread][strings.TrimSpace(rest)]
			if !ok {
				return mem.Operand{}, fmt.Errorf("address register %q not defined", rest)
			}
			return mem.FromReg(reg), nil
		}
	}
	s = strings.TrimPrefix(s, "&")
	if id, ok := p.locOf[s]; ok {
		return mem.Const(int64(id)), nil
	}
	return mem.Operand{}, fmt.Errorf("unknown location %q", s)
}

// value parses a data argument: an integer literal or a register name.
func (p *herdParser) value(s string) (mem.Operand, error) {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return mem.Const(v), nil
	}
	if reg, ok := p.regOf[p.thread][s]; ok {
		return mem.FromReg(reg), nil
	}
	return mem.Operand{}, fmt.Errorf("cannot parse value %q", s)
}

func (p *herdParser) defineReg(name string) int {
	th := p.thread
	reg, ok := p.regOf[th][name]
	if !ok {
		reg = p.nextReg[th]
		p.nextReg[th]++
		p.regOf[th][name] = reg
	}
	opIdx := 0
	if th < len(p.prog.Ops) {
		opIdx = len(p.prog.Ops[th])
	}
	p.regOpIdx[th][name] = opIdx
	return reg
}

func (p *herdParser) stmt(l string) error {
	var ctrl []int
	for {
		m := ifRe.FindStringSubmatch(l)
		if m == nil {
			break
		}
		opIdx, ok := p.regOpIdx[p.thread][m[1]]
		if !ok {
			return fmt.Errorf("control dependency on undefined register %q", m[1])
		}
		ctrl = append(ctrl, opIdx)
		l = strings.TrimSpace(m[2])
	}
	th := p.thread
	switch {
	case loadRe.MatchString(l):
		m := loadRe.FindStringSubmatch(l)
		addr, err := p.addr(m[2])
		if err != nil {
			return err
		}
		ord, err := orderOf(m[3])
		if err != nil {
			return err
		}
		reg := p.defineReg(m[1])
		p.prog.LoadDep(th, ord, addr, reg, ctrl)
	case storeRe.MatchString(l):
		m := storeRe.FindStringSubmatch(l)
		addr, err := p.addr(m[1])
		if err != nil {
			return err
		}
		val, err := p.value(m[2])
		if err != nil {
			return err
		}
		ord, err := orderOf(m[3])
		if err != nil {
			return err
		}
		p.prog.StoreDep(th, ord, addr, val, ctrl)
	case rmwRe.MatchString(l):
		m := rmwRe.FindStringSubmatch(l)
		addr, err := p.addr(m[3])
		if err != nil {
			return err
		}
		val, err := p.value(m[4])
		if err != nil {
			return err
		}
		ord, err := orderOf(m[5])
		if err != nil {
			return err
		}
		fn := mem.RMWAdd
		if m[2] == "atomic_exchange_explicit" {
			fn = mem.RMWSwap
		}
		if len(ctrl) > 0 {
			return fmt.Errorf("control dependencies on RMWs are not supported")
		}
		reg := p.defineReg(m[1])
		p.prog.RMW(th, ord, addr, val, reg, fn)
	case fenceRe.MatchString(l):
		m := fenceRe.FindStringSubmatch(l)
		ord, err := orderOf(m[1])
		if err != nil {
			return err
		}
		if len(ctrl) > 0 {
			return fmt.Errorf("control dependencies on fences are not supported")
		}
		p.prog.FenceOp(th, ord)
	case naLoadRe.MatchString(l):
		m := naLoadRe.FindStringSubmatch(l)
		addr, err := p.addr(m[2])
		if err != nil {
			return err
		}
		reg := p.defineReg(m[1])
		p.prog.LoadDep(th, c11.NA, addr, reg, ctrl)
	case naStoreRe.MatchString(l):
		m := naStoreRe.FindStringSubmatch(l)
		addr, err := p.addr(m[1])
		if err != nil {
			return err
		}
		val, err := p.value(m[2])
		if err != nil {
			return err
		}
		p.prog.StoreDep(th, c11.NA, addr, val, ctrl)
	default:
		return fmt.Errorf("unsupported statement %q", l)
	}
	return nil
}

func (p *herdParser) finish(meta map[string]string) (*litmus.Test, bool, error) {
	if p.prog == nil {
		return nil, false, fmt.Errorf("corpus: no thread bodies")
	}
	if len(p.locs) != p.prog.Mem().NumLocs {
		// Locations declared after the first thread body (e.g. a late
		// init block) would dangle past the program's location space.
		return nil, false, fmt.Errorf("corpus: %d locations declared after the thread bodies began", len(p.locs)-p.prog.Mem().NumLocs)
	}
	if err := p.prog.Mem().Validate(); err != nil {
		return nil, false, fmt.Errorf("corpus: %w", err)
	}
	name := p.name
	if meta["name"] != "" {
		name = meta["name"]
	}
	family, familyFromMeta := meta["family"], meta["family"] != ""
	if family == "" {
		family = familyOf(name)
	}

	// Observers: the metadata list when present, else every register
	// and location referenced by the exists clause, in clause order.
	type regObs struct {
		th    int
		label string
	}
	var regObservers []regObs
	var memObservers []string
	if obs := meta["observers"]; obs != "" {
		// Outcome labels must be unique program-wide: outcomes are
		// "label=value" strings, so a duplicated label (across threads,
		// or shared between a register and a location) is ambiguous.
		seenOn := map[string]int{}
		for _, o := range strings.Split(obs, ",") {
			if rest, ok := strings.CutPrefix(o, "m:"); ok {
				if _, dup := seenOn[rest]; dup {
					return nil, false, fmt.Errorf("corpus: duplicate observer label %q", rest)
				}
				seenOn[rest] = -1
				memObservers = append(memObservers, rest)
				continue
			}
			thStr, label, ok := strings.Cut(o, ":")
			if !ok {
				return nil, false, fmt.Errorf("corpus: malformed observer %q", o)
			}
			th, err := strconv.Atoi(thStr)
			if err != nil {
				return nil, false, fmt.Errorf("corpus: malformed observer %q", o)
			}
			if _, dup := seenOn[label]; dup {
				return nil, false, fmt.Errorf("corpus: duplicate observer label %q", label)
			}
			seenOn[label] = th
			regObservers = append(regObservers, regObs{th, label})
		}
	} else {
		seenOn := map[string]int{}
		for _, c := range p.exists {
			if m := regClause.FindStringSubmatch(c); m != nil {
				th, _ := strconv.Atoi(m[1])
				if prev, ok := seenOn[m[2]]; ok {
					if prev == -1 {
						return nil, false, fmt.Errorf("corpus: label %q names both a register and a location", m[2])
					}
					if prev != th {
						// Outcomes are keyed by bare label, so the same
						// register name observed on two threads would
						// silently bind both clauses to one register.
						return nil, false, fmt.Errorf("corpus: register %q observed on both P%d and P%d; outcome labels must be unique across threads", m[2], prev, th)
					}
					continue
				}
				seenOn[m[2]] = th
				regObservers = append(regObservers, regObs{th, m[2]})
			} else if m := memClause.FindStringSubmatch(c); m != nil {
				if _, ok := p.locOf[m[1]]; ok {
					if prev, seen := seenOn[m[1]]; seen {
						if prev != -1 {
							return nil, false, fmt.Errorf("corpus: label %q names both a register and a location", m[1])
						}
						continue
					}
					seenOn[m[1]] = -1
					memObservers = append(memObservers, m[1])
				}
			}
		}
	}
	for _, o := range regObservers {
		reg, ok := p.regOf[o.th][o.label]
		if !ok {
			return nil, false, fmt.Errorf("corpus: observed register %q not defined on P%d", o.label, o.th)
		}
		p.prog.Observe(o.th, reg, o.label)
	}
	for _, l := range memObservers {
		id, ok := p.locOf[l]
		if !ok {
			return nil, false, fmt.Errorf("corpus: observed location %q not declared", l)
		}
		p.prog.ObserveMem(mem.Loc(id), l)
	}

	// Specified outcome: the exists clauses with thread prefixes
	// stripped, in file order. Every clause label must be covered by a
	// registered observer (an explicit metadata observer list may name
	// fewer than the clauses do) — otherwise the emitted file could not
	// express the outcome and the round trip would break.
	obsLabel := map[string]bool{}
	for _, o := range regObservers {
		obsLabel[o.label] = true
	}
	for _, l := range memObservers {
		obsLabel[l] = true
	}
	var parts []string
	for _, c := range p.exists {
		if m := regClause.FindStringSubmatch(c); m != nil {
			if !obsLabel[m[2]] {
				return nil, false, fmt.Errorf("corpus: exists clause %q has no observer", c)
			}
			parts = append(parts, m[2]+"="+m[3])
		} else if m := memClause.FindStringSubmatch(c); m != nil {
			if !obsLabel[m[1]] {
				return nil, false, fmt.Errorf("corpus: exists clause %q has no observer", c)
			}
			parts = append(parts, m[1]+"="+m[2])
		} else {
			return nil, false, fmt.Errorf("corpus: unsupported exists clause %q", c)
		}
	}
	specified := mem.Outcome(strings.Join(parts, "; "))

	shape := &litmus.Shape{
		Name:        family,
		Description: "parsed from herd C litmus format",
		Specified:   specified,
	}
	return &litmus.Test{Name: name, Shape: shape, Prog: p.prog, Specified: specified}, familyFromMeta, nil
}

// familyOf guesses a litmus family from a test name like "mp-rlx.sc" or
// "mp[rlx,sc]": the prefix before the first bracket or dash.
func familyOf(name string) string {
	if i := strings.IndexAny(name, "[-"); i > 0 {
		return name[:i]
	}
	return name
}
