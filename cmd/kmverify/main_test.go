package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestGoldenOutput pins the command's output byte for byte.
func TestGoldenOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-problem", "all", "-n", "256"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want, err := os.ReadFile("testdata/all_n256.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("output drifted:\n got:\n%s\n want:\n%s", got, want)
	}
}

func TestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "3"}, "n=3"},
		{[]string{"-problem", "bogus"}, "unknown problem"},
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
