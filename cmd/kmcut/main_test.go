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
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("output drifted:\n got:\n%s\n want:\n%s", got, want)
	}
}

// TestRejectsBadInput pins usage errors (exit 2) for inputs the
// generators cannot build and flags the chosen generator does not read.
func TestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-gen", "gnm", "-n", "8"}, "m=32 out of range"},
		{[]string{"-gen", "cycle", "-c", "3"}, "-c is not read by -gen cycle"},
		{[]string{"-n", "8", "-c", "17"}, "1 <= c <= 16"},
		{[]string{"-graph", "cycle"}, "not defined: -graph"},
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
