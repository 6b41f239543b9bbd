package ir

import "fmt"

// Validate checks structural well-formedness: every variable is defined
// before use (conservatively: a definition inside a while body counts, since
// a variable no iteration assigned reads as zero), variable ids are in
// range, guards do not skip past the end of their body, and shift distances
// are sane. It returns the first problem found.
func Validate(p *Program) error {
	if p.NumVars < 0 {
		return fmt.Errorf("ir: %d variables", p.NumVars)
	}
	defined := make([]bool, p.NumVars)
	if err := validateBody(p, p.Stmts, defined); err != nil {
		return err
	}
	for _, o := range p.Outputs {
		if o.Var < 0 || int(o.Var) >= p.NumVars {
			return fmt.Errorf("ir: output %q names variable S%d out of range", o.Name, o.Var)
		}
		if !defined[o.Var] {
			return fmt.Errorf("ir: output %q variable S%d is never assigned", o.Name, o.Var)
		}
	}
	return nil
}

func validateBody(p *Program, body []Stmt, defined []bool) error {
	var buf [2]VarID
	for i, s := range body {
		switch x := s.(type) {
		case *Assign:
			for _, v := range OperandsInto(x.Expr, &buf) {
				if err := checkUse(p, v, defined); err != nil {
					return err
				}
			}
			if sh, ok := x.Expr.(Shift); ok {
				if sh.K == 0 {
					return fmt.Errorf("ir: zero-distance shift assigned to S%d", x.Dst)
				}
			}
			if mb, ok := x.Expr.(MatchBasis); ok {
				if mb.Bit < 0 || mb.Bit > 7+p.ExtBits {
					return fmt.Errorf("ir: basis bit %d out of range (8 raw + %d shared)", mb.Bit, p.ExtBits)
				}
			}
			if x.Dst < 0 || int(x.Dst) >= p.NumVars {
				return fmt.Errorf("ir: assignment to S%d out of range [0,%d)", x.Dst, p.NumVars)
			}
			defined[x.Dst] = true
		case *While:
			if err := checkUse(p, x.Cond, defined); err != nil {
				return err
			}
			if err := validateBody(p, x.Body, defined); err != nil {
				return err
			}
		case *Guard:
			if err := checkUse(p, x.Cond, defined); err != nil {
				return err
			}
			if x.Skip <= 0 {
				return fmt.Errorf("ir: guard with non-positive skip %d", x.Skip)
			}
			if i+1+x.Skip > len(body) {
				return fmt.Errorf("ir: guard skips %d statements but only %d remain", x.Skip, len(body)-i-1)
			}
		default:
			return fmt.Errorf("ir: unknown statement type %T", s)
		}
	}
	return nil
}

func checkUse(p *Program, v VarID, defined []bool) error {
	if v < 0 || int(v) >= p.NumVars {
		return fmt.Errorf("ir: use of S%d out of range [0,%d)", v, p.NumVars)
	}
	if !defined[v] {
		return fmt.Errorf("ir: use of S%d before definition", v)
	}
	return nil
}
