// Package cli is the command-line surface shared by the algorithm
// commands (kmconnect, kmmst, kmcut, kmverify, kmstream). Every command
// gets the machine flags (-k, -seed, -timeout) and its job context from
// a Cmd; commands that read a graph register the input group (-gen with
// -n/-m/-p/-c, or -store); commands that run over a kmworker fleet
// register the distributed/observability group (-transport, -workers,
// -retries, -heartbeat-timeout, -trace, -flight-dump). The groups
// validate their own flags, so a flag the chosen run would not read is
// a usage error (exit status 2), never silently dropped.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"kmgraph"
	"kmgraph/internal/dist"
	"kmgraph/internal/telemetry"
)

// Cmd is one command invocation: its flags, output streams, and the
// machine flags every command takes.
type Cmd struct {
	Flags *flag.FlagSet
	K     int
	Seed  int64

	name           string
	stdout, stderr io.Writer
	timeout        time.Duration
	checks         []func() error // flag validation, run in order before the body
	set            map[string]bool
	dist           *Dist
	tracer         *telemetry.JobTracer
}

// New starts a command named name writing to stdout and stderr, with
// -k, -seed and -timeout registered.
func New(name string, stdout, stderr io.Writer) *Cmd {
	c := &Cmd{Flags: flag.NewFlagSet(name, flag.ContinueOnError), name: name, stdout: stdout, stderr: stderr}
	c.Flags.SetOutput(stderr)
	c.Flags.IntVar(&c.K, "k", 8, "machines")
	c.Flags.Int64Var(&c.Seed, "seed", 1, "seed")
	c.Flags.DurationVar(&c.timeout, "timeout", 0, "per-job deadline (0 = none), e.g. 30s")
	return c
}

// usageError is a bad command line: the command exits 2.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// Usagef returns a usage error; Run prints it prefixed with the command
// name and exits 2.
func Usagef(format string, a ...any) error { return usageError{fmt.Sprintf(format, a...)} }

// Run parses args, validates the registered groups, and runs body. It
// returns the exit status: 0 on success, 2 for a bad command line, 1 for
// any other error (printed to stderr).
func (c *Cmd) Run(args []string, body func() error) int {
	if err := c.Flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	c.set = make(map[string]bool)
	c.Flags.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	var err error
	if c.K < 1 {
		err = Usagef("-k must be at least 1")
	}
	for _, step := range append(c.checks, body) {
		if err == nil {
			err = step()
		}
	}
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ue):
		fmt.Fprintf(c.stderr, "%s: %v\n", c.name, err)
		return 2
	}
	fmt.Fprintln(c.stderr, err)
	return 1
}

// Reject returns a usage error naming the first of the flags that was
// given on the command line, followed by why; nil if none was.
func (c *Cmd) Reject(why string, names ...string) error {
	for _, name := range names {
		if c.set[name] {
			return Usagef("-%s %s", name, why)
		}
	}
	return nil
}

// Printf writes to the command's standard output.
func (c *Cmd) Printf(format string, a ...any) { fmt.Fprintf(c.stdout, format, a...) }

// Context returns a job context bounded by -timeout (0 = no deadline).
func (c *Cmd) Context() (context.Context, context.CancelFunc) {
	if c.timeout > 0 {
		return context.WithTimeout(context.Background(), c.timeout)
	}
	return context.WithCancel(context.Background())
}

// ClusterOptions returns the options for a resident cluster of -k
// machines seeded by -seed, recording phase events when -trace is set.
func (c *Cmd) ClusterOptions() []kmgraph.ClusterOption {
	opts := []kmgraph.ClusterOption{kmgraph.WithK(c.K), kmgraph.WithSeed(c.Seed)}
	if c.dist != nil && c.dist.Trace != "" {
		c.tracer = telemetry.NewJobTracer()
		opts = append(opts, kmgraph.WithObserver(c.tracer.Observer()), kmgraph.WithPhaseMetrics())
	}
	return opts
}

// WriteTrace writes the phase events recorded by the cluster built from
// ClusterOptions as Chrome trace-event JSON to -trace, if it is set.
func (c *Cmd) WriteTrace() error {
	if c.tracer == nil {
		return nil
	}
	if err := c.tracer.WriteFile(c.dist.Trace); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	c.Printf("trace: wrote %s\n", c.dist.Trace)
	return nil
}

// Dist is the distributed/observability flag group.
type Dist struct {
	Trace string // -trace output path; empty when tracing is off

	transport, workers, flightDump string
	retries                        int
	heartbeatTimeout               time.Duration
	cmd                            *Cmd
}

// Dist registers -transport, -workers, -retries, -heartbeat-timeout,
// -trace and -flight-dump.
func (c *Cmd) Dist() *Dist {
	d := &Dist{cmd: c}
	fs := c.Flags
	fs.StringVar(&d.transport, "transport", "local", "local|tcp: where the k machines run")
	fs.StringVar(&d.workers, "workers", "", "with -transport tcp: comma-separated kmworker addresses")
	fs.IntVar(&d.retries, "retries", 1, "with -transport tcp: total job attempts; lost workers are re-dialed between attempts")
	fs.DurationVar(&d.heartbeatTimeout, "heartbeat-timeout", 30*time.Second, "with -transport tcp: silence tolerated on a worker before declaring it stalled")
	fs.StringVar(&d.Trace, "trace", "", "write a Chrome trace-event JSON of the job's phases to this file")
	fs.StringVar(&d.flightDump, "flight-dump", "", "with -transport tcp: on failure, dump flight-recorder snapshots as JSON under this directory")
	c.dist = d
	c.checks = append(c.checks, func() error {
		switch {
		case d.transport == "local":
			return c.Reject("requires -transport tcp", "workers", "retries", "heartbeat-timeout", "flight-dump")
		case d.transport != "tcp":
			return Usagef("unknown transport %q", d.transport)
		case d.workers == "":
			return Usagef("-transport tcp requires -workers")
		}
		return nil
	})
	return d
}

// TCP reports whether the k machines run on the -workers fleet.
func (d *Dist) TCP() bool { return d.transport == "tcp" }

// Run coordinates one job over the -workers fleet on the graph named by
// spec. job runs the family's dist call with the coordinator options
// and prints its result; Run wires -trace and -flight-dump around it.
func (d *Dist) Run(spec string, job func(ctx context.Context, workers []string, opts dist.CoordOptions) error) error {
	c := d.cmd
	workers := strings.Split(d.workers, ",")
	opts := dist.CoordOptions{HeartbeatTimeout: d.heartbeatTimeout, Retry: dist.RetryPolicy{Attempts: d.retries}}
	if d.Trace != "" {
		opts.Trace = &dist.JobTrace{}
	}
	if d.flightDump != "" {
		opts.Flight = &dist.FlightLog{}
	}
	c.Printf("distributed: %s over %d workers, k=%d\n", spec, len(workers), c.K)
	ctx, cancel := c.Context()
	defer cancel()
	if err := job(ctx, workers, opts); err != nil {
		if opts.Flight != nil {
			if derr := opts.Flight.Dump(d.flightDump); derr != nil {
				fmt.Fprintf(c.stderr, "flight dump: %v\n", derr)
			} else {
				fmt.Fprintf(c.stderr, "flight dump: wrote %s\n", d.flightDump)
			}
		}
		return err
	}
	if opts.Trace == nil {
		return nil
	}
	if err := telemetry.WriteTrace(d.Trace, opts.Trace.Assemble()); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	c.Printf("trace: wrote %s (trace id %#x)\n", d.Trace, opts.Trace.TraceID())
	return nil
}
