package agent

import (
	"encoding/json"
	"fmt"
)

// NodeFunc executes one graph node, mutating state and naming the next
// node ("" ends the run).
type NodeFunc func(rt *Runtime, st *State) (next string, err error)

// Graph is a LangGraph-style state machine: named nodes with dynamic
// routing, checkpointing state after every transition.
type Graph struct {
	nodes map[string]NodeFunc
	start string
}

// maxTransitions guards against routing loops.
const maxTransitions = 200

// NewGraph returns a graph starting at start.
func NewGraph(start string) *Graph {
	return &Graph{nodes: map[string]NodeFunc{}, start: start}
}

// AddNode registers a node.
func (g *Graph) AddNode(name string, fn NodeFunc) { g.nodes[name] = fn }

// Run drives the graph to completion, checkpointing state into the
// session after each node when a session is attached.
func (g *Graph) Run(rt *Runtime, st *State) error {
	cur := g.start
	for i := 0; cur != ""; i++ {
		if i >= maxTransitions {
			return fmt.Errorf("agent: graph exceeded %d transitions (routing loop?)", maxTransitions)
		}
		fn, ok := g.nodes[cur]
		if !ok {
			return fmt.Errorf("agent: unknown node %q", cur)
		}
		next, err := fn(rt, st)
		if err != nil {
			return err
		}
		if rt.Session != nil {
			if _, err := rt.Session.Checkpoint(fmt.Sprintf("%02d-%s", i, cur), st); err != nil {
				return fmt.Errorf("agent: checkpoint after %s: %w", cur, err)
			}
		}
		cur = next
	}
	return nil
}

// RestoreState loads a checkpointed state (for branch-and-continue
// workflows, §4.2.1).
func RestoreState(data []byte) (*State, error) {
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("agent: restore state: %w", err)
	}
	return &st, nil
}
