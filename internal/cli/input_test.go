package cli

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kmgraph"
	"kmgraph/internal/dist"
	"kmgraph/internal/graph"
)

func sortedEdges(edges []kmgraph.Edge) []kmgraph.Edge {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return edges
}

// TestSpecMatchesLocalGNM pins the equality -transport tcp relies on: at
// sparse points the streaming GNM the workers open from Spec has exactly
// the edges of the in-memory -gen gnm graph. At dense points the
// in-memory GNM samples the complement, the two graphs differ, and Spec
// refuses the mapping.
func TestSpecMatchesLocalGNM(t *testing.T) {
	for _, tc := range []struct {
		n, m  int
		dense bool
	}{
		{2000, 6000, false},
		{4096, 12288, false},
		{50, 1000, true},
		{100, 3000, true},
	} {
		t.Run(fmt.Sprintf("n%d_m%d", tc.n, tc.m), func(t *testing.T) {
			var stderr bytes.Buffer
			c := New("test", io.Discard, &stderr)
			in := c.Input(Input{N: tc.n}, "gen", "n", "m")
			args := []string{"-gen", "gnm", "-n", fmt.Sprint(tc.n), "-m", fmt.Sprint(tc.m), "-seed", "7"}
			code := c.Run(args, func() error {
				g, err := in.Graph()
				if err != nil {
					return err
				}
				local := sortedEdges(g.Edges())
				stream, err := graph.Drain(graph.StreamGNM(tc.n, tc.m, 7))
				if err != nil {
					return err
				}
				if same := reflect.DeepEqual(local, sortedEdges(stream)); same == tc.dense {
					t.Errorf("streaming and in-memory GNM equal = %v, want %v", same, !tc.dense)
				}
				spec, err := in.Spec()
				if err != nil {
					return err
				}
				src, closer, err := dist.OpenJobSource(spec)
				if err != nil {
					return err
				}
				defer closer.Close()
				remote, err := graph.Drain(src)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(local, sortedEdges(remote)) {
					t.Errorf("spec %s opens a different edge set than the local graph", spec)
				}
				return nil
			})
			switch {
			case tc.dense && (code != 2 || !strings.Contains(stderr.String(), "dense gnm")):
				t.Errorf("dense point: exit %d, stderr %q; want exit 2 naming dense gnm", code, stderr.String())
			case !tc.dense && code != 0:
				t.Errorf("sparse point: exit %d: %s", code, stderr.String())
			}
		})
	}
}
