// Package ast generates the annotated abstract syntax tree of the
// transformed program from a schedule tree (§5.3). Each loop nest of
// the original program reappears with its loops; the innermost loop is
// the pipeline loop, and a task annotation (derived from the schedule
// tree's mark node) precedes the statement call, reproducing the shape
// of the paper's Figure 6.
package ast

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/isl/aff"
	"repro/internal/schedtree"
)

// Stmt is a node of the generated AST.
type Stmt interface{ stmtNode() }

// ForStmt is a counted loop `for (v = Lo; v < Hi; v += 1)`.
type ForStmt struct {
	Var    string
	Lo, Hi aff.Expr // over the enclosing loop variables
	Body   []Stmt
}

// CallStmt invokes a statement body with the loop variables.
type CallStmt struct {
	Name string
	Args []string
}

// CommentStmt carries an annotation line.
type CommentStmt struct {
	Text string
}

// TaskStmt marks the body of a pipeline loop as a task: the annotation
// from the schedule tree's mark node plus the statements forming the
// task body.
type TaskStmt struct {
	Task *schedtree.TaskAnnotation
	Body []Stmt
}

func (*ForStmt) stmtNode()     {}
func (*CallStmt) stmtNode()    {}
func (*CommentStmt) stmtNode() {}
func (*TaskStmt) stmtNode()    {}

// FuncDecl is the generated function holding the transformed loop
// nests, the unit the paper extracts and launches under omp parallel +
// omp single.
type FuncDecl struct {
	Name string
	Body []Stmt
}

// Generate builds the annotated AST from a schedule tree produced by
// schedtree.Build. One loop nest is emitted per per-statement subtree,
// using the statement's original symbolic bounds; the task annotation
// from the mark node lands immediately inside the innermost (pipeline)
// loop.
func Generate(name string, tree *schedtree.SequenceNode) (*FuncDecl, error) {
	fn := &FuncDecl{Name: name}
	for _, child := range tree.Children {
		mark := findMark(child)
		if mark == nil || mark.Task == nil {
			return nil, fmt.Errorf("ast: statement subtree without a %q mark node", schedtree.MarkName)
		}
		task := mark.Task
		spec := task.Stmt.Spec
		if spec == nil {
			return nil, fmt.Errorf("ast: statement %q carries no symbolic domain", task.Stmt.Name)
		}
		depth := len(spec.Bounds)
		args := make([]string, depth)
		for d := 0; d < depth; d++ {
			args[d] = loopVar(d)
		}
		inner := []Stmt{&TaskStmt{
			Task: task,
			Body: []Stmt{&CallStmt{Name: task.Stmt.Name, Args: args}},
		}}
		// Wrap loops inside-out.
		for d := depth - 1; d >= 0; d-- {
			inner = []Stmt{&ForStmt{
				Var:  loopVar(d),
				Lo:   spec.Bounds[d].Lo,
				Hi:   spec.Bounds[d].Hi,
				Body: inner,
			}}
		}
		fn.Body = append(fn.Body, inner...)
	}
	return fn, nil
}

// loopVar names loop dimension d as in Polly's generated code.
func loopVar(d int) string { return fmt.Sprintf("c%d", d) }

// findMark locates the pipeline mark node in a per-statement subtree.
func findMark(n schedtree.Node) *schedtree.MarkNode {
	switch node := n.(type) {
	case *schedtree.MarkNode:
		if node.Name == schedtree.MarkName {
			return node
		}
		return findMark(node.Child)
	case *schedtree.DomainNode:
		return findMark(node.Child)
	case *schedtree.BandNode:
		return findMark(node.Child)
	case *schedtree.ExpansionNode:
		return findMark(node.Child)
	default:
		return nil
	}
}

// Fprint renders the AST as annotated C-like source in the style of
// Figure 6.
func Fprint(w io.Writer, fn *FuncDecl) error {
	p := &printer{w: w}
	p.printf("void %s(void) {\n", fn.Name)
	p.depth++
	for _, s := range fn.Body {
		p.stmt(s)
	}
	p.depth--
	p.printf("}\n")
	return p.err
}

// Render returns the printed AST as a string.
func Render(fn *FuncDecl) string {
	var b strings.Builder
	_ = Fprint(&b, fn)
	return b.String()
}

type printer struct {
	w     io.Writer
	depth int
	vars  []string // enclosing loop variables, for bound rendering
	err   error
}

func (p *printer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "%s%s", strings.Repeat("  ", p.depth), fmt.Sprintf(format, args...))
}

func (p *printer) stmt(s Stmt) {
	switch node := s.(type) {
	case *ForStmt:
		p.printf("for (%s = %s; %s < %s; %s += 1) {\n",
			node.Var, renderExpr(node.Lo, p.vars),
			node.Var, renderExpr(node.Hi, p.vars),
			node.Var)
		p.vars = append(p.vars, node.Var)
		p.depth++
		for _, inner := range node.Body {
			p.stmt(inner)
		}
		p.depth--
		p.vars = p.vars[:len(p.vars)-1]
		p.printf("}\n")
	case *TaskStmt:
		p.printf("// task(%s)%s\n", node.Task.Stmt.Name, depsComment(node.Task))
		for _, inner := range node.Body {
			p.stmt(inner)
		}
	case *CallStmt:
		p.printf("%s(%s);\n", node.Name, strings.Join(node.Args, ", "))
	case *CommentStmt:
		p.printf("// %s\n", node.Text)
	}
}

// depsComment summarizes the annotation like the Figure 6 comments:
// which statements the task's blocks wait for, and the block counts.
func depsComment(t *schedtree.TaskAnnotation) string {
	var b strings.Builder
	fmt.Fprintf(&b, ": %d blocks", len(t.Blocks))
	if len(t.InDeps) == 0 {
		b.WriteString(", no in-deps")
	} else {
		names := make([]string, len(t.InDeps))
		for i, d := range t.InDeps {
			names[i] = d.Src.Name
		}
		fmt.Fprintf(&b, ", in-deps on [%s]", strings.Join(names, ", "))
	}
	return b.String()
}

// renderExpr prints an affine bound with the enclosing loop variables
// substituted for the expression's formal variables.
func renderExpr(e aff.Expr, vars []string) string {
	s := e.String()
	// aff.Expr names variables i0, i1, ...; rename to the loop vars.
	for d := len(vars) - 1; d >= 0; d-- {
		s = strings.ReplaceAll(s, fmt.Sprintf("i%d", d), vars[d])
	}
	return s
}
