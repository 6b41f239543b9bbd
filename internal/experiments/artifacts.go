package experiments

// Artifact is one regenerated table or figure: Render is what `bitbench`
// prints, CSV what it writes to <name>.csv.
type Artifact interface {
	Render() string
	CSV() string
}

// Artifacts lists the paper's tables and figures in the order `bitbench -exp
// all` runs them; `make paper` writes each to results/<Name>.csv.
var Artifacts = []struct {
	Name string
	Run  func(*Suite) (Artifact, error)
}{
	{"table1", func(s *Suite) (Artifact, error) { return s.Table1() }},
	{"fig11", func(s *Suite) (Artifact, error) { return s.Table2Figure11() }},
	{"fig12", func(s *Suite) (Artifact, error) { return s.Figure12Breakdown() }},
	{"table4", func(s *Suite) (Artifact, error) { return s.Table4Memory() }},
	{"table5", func(s *Suite) (Artifact, error) { return s.Table5Recompute() }},
	{"fig13", func(s *Suite) (Artifact, error) { return s.Figure13MergeSize() }},
	{"fig14", func(s *Suite) (Artifact, error) { return s.Figure14Interval() }},
	{"fig15", func(s *Suite) (Artifact, error) { return s.Figure15Portability() }},
	{"extras", func(s *Suite) (Artifact, error) { return s.AblationExtras() }},
}
