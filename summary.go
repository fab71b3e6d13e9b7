package virtualwire

import (
	"fmt"

	"virtualwire/internal/fsl"
)

// ScenarioNames lists the SCENARIO blocks of a (possibly multi-scenario)
// FSL script without staging anything.
func ScenarioNames(src string) ([]string, error) {
	progs, err := fsl.CompileAll(src)
	if err != nil {
		return nil, scriptErr(err)
	}
	names := make([]string, 0, len(progs))
	for _, p := range progs {
		names = append(names, p.Name)
	}
	return names, nil
}

// CheckScript compiles src without building anything, verifying that the
// named scenario exists (any scenario when name is empty). Failures wrap
// ErrScriptParse, so a campaign can reject a bad spec before spending a
// single run on it.
func CheckScript(src, name string) error {
	progs, err := fsl.CompileAll(src)
	if err != nil {
		return scriptErr(err)
	}
	if name == "" {
		return nil
	}
	for _, p := range progs {
		if p.Name == name {
			return nil
		}
	}
	return scriptErr(fmt.Errorf("script has no scenario %q", name))
}
