package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ctqosim/internal/benchrec"
	"ctqosim/internal/core"
	"ctqosim/internal/scenario"
)

// resolveScenario turns a scenario name (resolved by core.ResolveScenario)
// or a -scenario-file path into a runnable config plus (when available)
// the parsed document, whose assertions are evaluated after the run.
// Exactly one of name and file must be given.
func resolveScenario(name, file string) (core.Config, *scenario.Document, error) {
	switch {
	case name != "" && file != "":
		return core.Config{}, nil, fmt.Errorf("give a scenario name or -scenario-file, not both")
	case file != "":
		return core.LoadScenarioFile(file)
	case name != "":
		return core.ResolveScenario(name)
	default:
		return core.Config{}, nil, fmt.Errorf("no scenario given (name it, or use -scenario-file)")
	}
}

// splitLeadingName peels a positional scenario name off a subcommand's
// argument list, so "run fig3 -json" and "run -scenario-file f.json"
// both parse.
func splitLeadingName(args []string) (name string, rest []string) {
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		return args[0], args[1:]
	}
	return "", args
}

// evaluateAssertions renders and checks a document's assertion section
// against a finished run; nil doc or an empty section is a pass.
func evaluateAssertions(doc *scenario.Document, res *core.Result, quiet bool) error {
	if doc == nil || len(doc.Assertions) == 0 {
		return nil
	}
	report := scenario.Evaluate(doc.Assertions, res.Outcome())
	if !quiet {
		fmt.Println("assertions:")
		fmt.Println(report)
	}
	if !report.Pass() {
		return fmt.Errorf("%d of %d assertions failed", report.Failed(), len(report.Results))
	}
	return nil
}

func scenarioCmd(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ntierlab scenario <run|validate|generate> ...")
	}
	switch args[0] {
	case "run":
		return scenarioRun(args[1:])
	case "validate":
		return scenarioValidate(args[1:])
	case "generate":
		return scenarioGenerate(args[1:])
	default:
		return fmt.Errorf("unknown scenario subcommand %q (want run, validate or generate)", args[0])
	}
}

// scenarioRunRecord is the "scenario_run" entry of the keyed bench file:
// the wall clock of one declarative scenario run, the reference point for
// scenario-engine overhead.
type scenarioRunRecord struct {
	Benchmark       string  `json:"benchmark"`
	Scenario        string  `json:"scenario"`
	Seed            int64   `json:"seed"`
	DurationSeconds float64 `json:"duration_seconds"`
	Events          int     `json:"events"`
	Assertions      int     `json:"assertions"`
	CPUs            int     `json:"cpus"`
	WallSeconds     float64 `json:"wall_seconds"`
	SimSecondsPerS  float64 `json:"sim_seconds_per_wall_second"`
}

func scenarioRun(args []string) error {
	fs := flag.NewFlagSet("scenario run", flag.ContinueOnError)
	duration := fs.Duration("duration", 0, "override measured duration")
	seed := fs.Int64("seed", 0, "override RNG seed")
	asJSON := fs.Bool("json", false, "emit the machine-readable summary instead of text")
	csvDir := fs.String("csv", "", "write timeline CSVs into this directory")
	benchout := fs.String("benchout", "",
		"record the run's wall clock under the \"scenario_run\" key of this JSON file")
	name, rest := splitLeadingName(args)
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("usage: ntierlab scenario run <file|name> [flags]")
	}
	cfg, doc, err := core.ResolveScenario(name)
	if err != nil {
		return err
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	exp := core.New(cfg)
	defaulted := exp.Config()
	start := time.Now()
	res, err := exp.Run()
	if err != nil {
		return err
	}
	wall := time.Since(start)

	if *asJSON {
		data, err := res.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		fmt.Printf("simulated %v in %v wall time\n\n", res.End, wall.Round(time.Millisecond))
		fmt.Println(res.Summary())
		if res.Report != nil {
			fmt.Println(res.Report)
		}
	}
	if *csvDir != "" {
		if err := core.WriteCSVs(res, *csvDir); err != nil {
			return err
		}
		if !*asJSON {
			fmt.Printf("timelines written to %s\n", *csvDir)
		}
	}
	if *benchout != "" {
		record := scenarioRunRecord{
			Benchmark:       "ntierlab-scenario-run",
			Scenario:        defaulted.Name,
			Seed:            defaulted.Seed,
			DurationSeconds: defaulted.Duration.Seconds(),
			Events:          eventCount(doc),
			Assertions:      assertionCount(doc),
			CPUs:            runtime.NumCPU(),
			WallSeconds:     wall.Seconds(),
			SimSecondsPerS:  res.End.Seconds() / wall.Seconds(),
		}
		if err := benchrec.Update(*benchout, "scenario_run", record); err != nil {
			return err
		}
		if !*asJSON {
			fmt.Printf("wall clock recorded in %s\n", *benchout)
		}
	}
	return evaluateAssertions(doc, res, *asJSON)
}

func eventCount(doc *scenario.Document) int {
	if doc == nil {
		return 0
	}
	return len(doc.Events)
}

func assertionCount(doc *scenario.Document) int {
	if doc == nil {
		return 0
	}
	return len(doc.Assertions)
}

func scenarioValidate(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ntierlab scenario validate <file>...")
	}
	var errs []error
	for _, path := range args {
		_, doc, err := core.LoadScenarioFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		fmt.Printf("ok %-40s %q (%d events, %d assertions)\n",
			path, doc.Name, len(doc.Events), len(doc.Assertions))
	}
	return errors.Join(errs...)
}

func scenarioGenerate(args []string) error {
	fs := flag.NewFlagSet("scenario generate", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "generator seed; the same seed always yields the same scenario")
	out := fs.String("o", "", "write the scenario to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	doc := scenario.Generate(*seed)
	data, err := doc.Marshal()
	if err != nil {
		return err
	}
	if *out != "" {
		return os.WriteFile(*out, data, 0o644)
	}
	fmt.Print(string(data))
	return nil
}
