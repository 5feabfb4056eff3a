package main

import (
	"reflect"
	"strings"
	"testing"

	"dgc/internal/admin"
)

// TestFlagsResolveLikeClusterSpec: a dgc-node command line and the one-node
// cluster spec that says the same resolve to the same NodeSpec — defaults,
// overrides, the codec a snapshot directory implies, and no codec when none
// is named.
func TestFlagsResolveLikeClusterSpec(t *testing.T) {
	cases := []struct {
		args []string
		node string // the node entry's settings, beyond id and listen
	}{
		{nil, ""},
		{
			[]string{"-tick", "50ms", "-lgc-every", "3", "-snapshot-every", "5", "-detect-every", "0",
				"-candidate-age", "2", "-call-timeout", "9", "-seed-objects", "4",
				"-state-file", "/var/dgc/P1.state"},
			"tick: 50ms\nlgc_every: 3\nsnapshot_every: 5\ndetect_every: 0\ncandidate_age: 2\n" +
				"call_timeout: 9\nseed_objects: 4\nstate_file: /var/dgc/P1.state\n",
		},
		{[]string{"-snapshot-dir", "/var/dgc/snaps"}, "snapshot_dir: /var/dgc/snaps\n"},
		{[]string{"-codec", "reflect", "-snapshot-dir", "/var/dgc/snaps"}, "codec: reflect\nsnapshot_dir: /var/dgc/snaps\n"},
	}
	for _, c := range cases {
		args := append([]string{"-id", "P1", "-listen", "127.0.0.1:7001"}, c.args...)
		got, _, err := parseArgs(args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		text := "nodes:\n  - id: P1\n    listen: 127.0.0.1:7001\n"
		for _, line := range strings.SplitAfter(c.node, "\n") {
			if line != "" {
				text += "    " + line
			}
		}
		cs, err := admin.ParseClusterSpec([]byte(text))
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		specs, err := cs.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, specs[0]) {
			t.Errorf("%v resolved to\n%+v\nbut the cluster spec\n%s resolved to\n%+v", args, got, text, specs[0])
		}
	}
}
