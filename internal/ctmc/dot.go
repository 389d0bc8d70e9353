package ctmc

import (
	"fmt"
	"strings"
)

// DOT renders the chain as a Graphviz digraph: states labeled with their
// names and mean residence times, edges with transition probabilities,
// the absorbing state as a double circle. Used to document the mapped
// models (the Figure 4 style of the paper).
func (c *Chain) DOT() string {
	var b strings.Builder
	b.WriteString("digraph ctmc {\n  rankdir=LR;\n  node [fontsize=10, shape=circle];\n")
	abs := c.Absorbing()
	for i := 0; i < c.N(); i++ {
		if i == abs {
			fmt.Fprintf(&b, "  %d [label=\"%s\", shape=doublecircle];\n", i, dotEscape(c.Name(i)))
			continue
		}
		fmt.Fprintf(&b, "  %d [label=\"%s\\nH=%.4g\"];\n", i, dotEscape(c.Name(i)), c.H[i])
	}
	for i := 0; i < abs; i++ {
		for _, a := range c.Arcs[i] {
			if a.Prob > 0 {
				fmt.Fprintf(&b, "  %d -> %d [label=\"%.3g\", fontsize=8];\n", i, a.To, a.Prob)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func dotEscape(s string) string {
	return strings.NewReplacer("\"", "\\\"", "\n", "\\n").Replace(s)
}
