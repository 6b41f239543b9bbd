package ir

import (
	"fmt"

	"bitgen/internal/bitstream"
	"bitgen/internal/transpose"
)

// ExecStats reports the dynamic cost of a whole-stream interpretation.
type ExecStats struct {
	// Instructions is the number of assignments executed (each touching
	// the full stream).
	Instructions int64
	// WhileIterations is the total number of loop-body executions.
	WhileIterations int64
	// GuardSkips counts guard-triggered skips (only when guards are
	// honored).
	GuardSkips int64
	// StreamBytesTouched approximates memory traffic: bytes of operand
	// and result streams moved per executed assignment.
	StreamBytesTouched int64
}

// InterpOptions control interpretation.
type InterpOptions struct {
	// HonorGuards executes Guard statements (skipping and zeroing) instead
	// of ignoring them. Both settings must yield identical outputs; tests
	// rely on that equivalence.
	HonorGuards bool
	// MaxWhileIterations caps fixed-point loops as a non-termination
	// safety net. Zero means 2*len(input)+16.
	MaxWhileIterations int
}

// Result holds the interpreter's outputs.
type Result struct {
	// Outputs maps each program output name to its match stream.
	Outputs map[string]*bitstream.Stream
	Stats   ExecStats
}

// Interpret executes a bitstream program over the full input, one
// instruction at a time across the entire stream — the execution model of
// CPU bitstream engines like icgrep, and the golden reference for the GPU
// executors. A stream that is not an output is dropped after its last
// top-level read (LastReads), so the live set, not the program, bounds
// memory.
func Interpret(p *Program, basis *transpose.Basis, opts InterpOptions) (*Result, error) {
	n := basis.N
	maxIter := opts.MaxWhileIterations
	if maxIter == 0 {
		maxIter = 2*n + 16
	}
	env := &interpEnv{
		prog:    p,
		basis:   basis,
		n:       n,
		vars:    make([]*bitstream.Stream, p.NumVars),
		maxIter: maxIter,
		honor:   opts.HonorGuards,
	}
	if err := env.runTop(); err != nil {
		return nil, err
	}
	res := &Result{
		Outputs: make(map[string]*bitstream.Stream, len(p.Outputs)),
		Stats:   env.stats,
	}
	for _, o := range p.Outputs {
		s := env.vars[o.Var]
		if s == nil {
			return nil, fmt.Errorf("ir: output %q (S%d) never assigned", o.Name, o.Var)
		}
		if o.Nullable {
			// The empty match at end-of-input lives one position past the
			// input-length stream; report it on an extended copy.
			ext := s.Extend(1)
			ext.Set(n)
			s = ext
		}
		res.Outputs[o.Name] = s
	}
	return res, nil
}

// ExtendNullableOutputs applies the nullable end-of-input extension to raw
// executor outputs: block-wise executors produce input-length streams, and
// the extra empty-match position of a nullable regex (the empty match after
// the last input byte) is appended here. Input streams are copied before
// growth, never mutated in place — executor sessions pool their buffers.
func ExtendNullableOutputs(p *Program, outs map[string]*bitstream.Stream) map[string]*bitstream.Stream {
	done := make(map[string]*bitstream.Stream, len(outs))
	for _, o := range p.Outputs {
		s := outs[o.Name]
		if s == nil {
			continue
		}
		if o.Nullable {
			ext := s.Extend(1)
			ext.Set(ext.Len() - 1)
			s = ext
		}
		done[o.Name] = s
	}
	return done
}

type interpEnv struct {
	prog    *Program
	basis   *transpose.Basis
	n       int
	vars    []*bitstream.Stream
	stats   ExecStats
	maxIter int
	honor   bool
}

// get reads a variable. A variable that was never assigned on the taken
// path (e.g. one only defined inside an if whose branch was not taken) reads
// as all-zero — the same semantics the block-wise executors give their
// window-fresh register files. Textual use-before-def is still rejected by
// Validate.
func (e *interpEnv) get(v VarID) *bitstream.Stream {
	s := e.vars[v]
	if s == nil {
		s = bitstream.New(e.n)
		e.vars[v] = s
	}
	return s
}

// runTop runs the program's top-level statements one at a time, each
// through runBody, and drops every non-output stream once the statements
// run or skipped so far include its last read.
func (e *interpEnv) runTop() error {
	p := e.prog
	output := make([]bool, p.NumVars)
	for _, o := range p.Outputs {
		output[o.Var] = true
	}
	dead := make([][]VarID, len(p.Stmts)+1)
	for v, at := range LastReads(p.Stmts, p.NumVars) {
		if at > 0 && !output[v] {
			dead[at] = append(dead[at], VarID(v))
		}
	}
	for i := 0; i < len(p.Stmts); {
		next := i + 1
		if g, ok := p.Stmts[i].(*Guard); ok && e.honor {
			next += g.Skip
		}
		if err := e.runBody(p.Stmts[i:next]); err != nil {
			return err
		}
		for ; i < next; i++ {
			for _, v := range dead[i+1] {
				e.vars[v] = nil
			}
		}
	}
	return nil
}

func (e *interpEnv) runBody(body []Stmt) error {
	for i := 0; i < len(body); i++ {
		switch x := body[i].(type) {
		case *Assign:
			if err := e.assign(x); err != nil {
				return err
			}
		case *While:
			iters := 0
			for {
				if !e.get(x.Cond).Any() {
					break
				}
				if iters++; iters > e.maxIter {
					return fmt.Errorf("ir: while(S%d) exceeded %d iterations", x.Cond, e.maxIter)
				}
				e.stats.WhileIterations++
				if err := e.runBody(x.Body); err != nil {
					return err
				}
			}
		case *Guard:
			if !e.honor {
				continue
			}
			if !e.get(x.Cond).Any() {
				e.stats.GuardSkips++
				for _, s := range body[i+1 : i+1+x.Skip] {
					e.zeroDefs(s)
				}
				i += x.Skip
			}
		default:
			return fmt.Errorf("ir: unknown statement %T", body[i])
		}
	}
	return nil
}

// zeroDefs sets every variable assigned (transitively) by s to all-zero,
// the semantics of a taken zero-block guard.
func (e *interpEnv) zeroDefs(s Stmt) {
	switch x := s.(type) {
	case *Assign:
		e.vars[x.Dst] = bitstream.New(e.n)
	case *While:
		for _, b := range x.Body {
			e.zeroDefs(b)
		}
	}
}

func (e *interpEnv) assign(a *Assign) error {
	var out *bitstream.Stream
	switch x := a.Expr; x.Op {
	case OpZero:
		out = bitstream.New(e.n)
	case OpOnes:
		out = bitstream.NewOnes(e.n)
	case OpCopy:
		out = e.get(x.X).Clone()
	case OpNot:
		out = e.get(x.X).Not()
	case OpAnd:
		out = e.get(x.X).And(e.get(x.Y))
	case OpOr:
		out = e.get(x.X).Or(e.get(x.Y))
	case OpXor:
		out = e.get(x.X).Xor(e.get(x.Y))
	case OpAndNot:
		out = e.get(x.X).AndNot(e.get(x.Y))
	case OpShift:
		out = e.get(x.X).Shift(int(x.K))
	case OpStarThru:
		out = bitstream.MatchStar(e.get(x.X), e.get(x.Y))
	case OpBasis:
		out = e.basis.Bit(int(x.K)).Clone()
	default:
		return fmt.Errorf("ir: unknown operation %d", x.Op)
	}
	e.vars[a.Dst] = out
	e.stats.Instructions++
	// Operand reads + result write, in bytes of full-stream traffic.
	nBytes := int64((e.n + 7) / 8)
	e.stats.StreamBytesTouched += nBytes * int64(a.Expr.Op.Arity()+1)
	return nil
}
