package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"ctqosim/internal/core"
	"ctqosim/internal/scenario"
)

func scenarioCmd(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ntierlab scenario <validate|generate> ...")
	}
	switch args[0] {
	case "validate":
		return scenarioValidate(args[1:])
	case "generate":
		return scenarioGenerate(args[1:])
	default:
		return fmt.Errorf("unknown scenario subcommand %q (want validate or generate; run a scenario with ntierlab run)", args[0])
	}
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
	if err := parseFlags(fs, args); err != nil {
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
