package repl

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/onioncurve/onion/internal/vfs"
)

// TestReadStateStrict: REPL_STATE parses only as the exact lines
// writeState writes, read through a bound. Trailing bytes, a missing
// final newline, signs, doubled spaces, unknown roles and versions and an
// oversized file all fail; valid v1 and v2 states, and the longest state
// writeState writes, still read.
func TestReadStateStrict(t *testing.T) {
	const v2 = "onion repl state v2\nrole follower\nepoch 3\nbase 4\nbaseEpoch 2\napplied 5\n"
	longest := nodeState{role: "follower", epoch: ^uint64(0), base: ^uint64(0), baseEpoch: ^uint64(0), applied: ^uint64(0)}
	for _, tc := range []struct {
		name, body string
		want       *nodeState
	}{
		{"v2", v2, &nodeState{version: 2, role: "follower", epoch: 3, base: 4, baseEpoch: 2, applied: 5}},
		{"v1 leader", "onion repl state v1\nrole leader\nepoch 7\nbase 0\nbaseEpoch 0\napplied 0\n",
			&nodeState{version: 1, role: "leader", epoch: 7}},
		{"trailing junk line", v2 + "junk junk\n", nil},
		{"trailing junk on a line", strings.Replace(v2, "applied 5", "applied 5 junk", 1), nil},
		{"trailing digits and letters", strings.Replace(v2, "epoch 3", "epoch 3xyz", 1), nil},
		{"no final newline", strings.TrimSuffix(v2, "\n"), nil},
		{"blank line after", v2 + "\n", nil},
		{"missing line", strings.Replace(v2, "base 4\n", "", 1), nil},
		{"plus sign", strings.Replace(v2, "base 4", "base +4", 1), nil},
		{"minus sign", strings.Replace(v2, "epoch 3", "epoch -3", 1), nil},
		{"double space", strings.Replace(v2, "applied 5", "applied  5", 1), nil},
		{"double space before role", strings.Replace(v2, "role follower", "role  follower", 1), nil},
		{"base prefix", strings.Replace(v2, "base 4", "base 0x4", 1), nil},
		{"number overflow", strings.Replace(v2, "epoch 3", "epoch 18446744073709551616", 1), nil},
		{"version 0", strings.Replace(v2, "v2", "v0", 1), nil},
		{"version 3", strings.Replace(v2, "v2", "v3", 1), nil},
		{"unknown role", strings.Replace(v2, "follower", "candidate", 1), nil},
		{"CRLF", strings.ReplaceAll(v2, "\n", "\r\n"), nil},
		{"oversized", v2 + strings.Repeat("x", maxStateBytes), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(statePath(dir), []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			st, ok, err := readState(vfs.OS{}, dir)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("%q read as %+v", tc.body, st)
				}
				if over := fmt.Sprintf("over %d bytes", maxStateBytes); (len(tc.body) > maxStateBytes) != strings.Contains(err.Error(), over) {
					t.Fatalf("%d bytes: %v", len(tc.body), err)
				}
				return
			}
			if err != nil || !ok || st != *tc.want {
				t.Fatalf("read %+v, %v, %v; want %+v", st, ok, err, *tc.want)
			}
		})
	}

	t.Run("longest written", func(t *testing.T) {
		dir := t.TempDir()
		if err := writeState(vfs.OS{}, dir, longest); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(statePath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != 147 || len(b) > maxStateBytes {
			t.Fatalf("longest state is %d bytes, bound %d", len(b), maxStateBytes)
		}
		longest.version = stateVersion
		if st, ok, err := readState(vfs.OS{}, dir); err != nil || !ok || st != longest {
			t.Fatalf("read %+v, %v, %v; want %+v", st, ok, err, longest)
		}
	})
}
