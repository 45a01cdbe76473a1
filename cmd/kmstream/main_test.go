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
	if code := run([]string{"-n", "2000", "-batches", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want, err := os.ReadFile("testdata/n2000_batches3.golden")
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
		{[]string{"-n", "4"}, "m=12 out of range"},
		{[]string{"-gen", "splitmerge", "-n", "6", "-comps", "4"}, "comps=4"},
		{[]string{"-static", "sometimes"}, "unknown -static mode"},
		{[]string{"-gen", "bogus"}, "unknown stream generator"},
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
