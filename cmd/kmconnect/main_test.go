package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutput pins the command's output byte for byte.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"n2000", []string{"-n", "2000"}},
		{"flooding", []string{"-n", "2000", "-algo", "flooding"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("output drifted:\n got:\n%s\n want:\n%s", got, want)
			}
		})
	}
}

// TestRejectsUnreadFlags pins that a flag the chosen run would not read
// — or an input the generators or the workers cannot produce — is a
// usage error (exit 2) with a message, never silently dropped.
func TestRejectsUnreadFlags(t *testing.T) {
	tcp := func(args ...string) []string {
		return append([]string{"-transport", "tcp", "-workers", "127.0.0.1:1"}, args...)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{tcp("-input", "g.txt"), "not defined: -input"},
		{tcp("-algo", "flooding"), "-algo flooding"},
		{tcp("-store", "g.kmgs", "-materialize"), "-materialize"},
		{tcp("-store", "g.kmgs", "-no-oracle"), "-no-oracle"},
		{tcp("-gen", "gnm", "-n", "50", "-m", "1000"), "dense gnm"},
		{tcp("-gen", "path"), "-store or -gen gnm"},
		{[]string{"-transport", "tcp"}, "requires -workers"},
		{[]string{"-workers", "127.0.0.1:1"}, "-workers requires -transport tcp"},
		{[]string{"-flight-dump", "dir"}, "-flight-dump requires -transport tcp"},
		{[]string{"-materialize"}, "-materialize"},
		{[]string{"-store", "g.txt", "-algo", "referee", "-no-oracle"}, "-no-oracle"},
		{[]string{"-algo", "edgecheck", "-trace", "t.json"}, "-algo edgecheck"},
		{[]string{"-store", "g.txt", "-n", "100"}, "-n does not apply to -store"},
		{[]string{"-gen", "path", "-p", "0.5"}, "-p is not read by -gen path"},
		{[]string{"-gen", "gnm", "-n", "4"}, "m=12 out of range"},
		{[]string{"-gen", "cycle", "-n", "2"}, "needs more vertices"},
		{[]string{"-gen", "components", "-n", "10", "-c", "11"}, "1 <= c <= 10"},
		{[]string{"-gen", "bogus"}, "unknown generator"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stdout %q)", code, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q lacks %q", stderr.String(), tc.want)
			}
		})
	}
}
