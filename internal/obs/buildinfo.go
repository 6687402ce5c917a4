package obs

import (
	"runtime/debug"
	"sync"
)

// Build identifies the running binary: module version, toolchain and
// VCS state, read once from the build info stamped by `go build`. It
// is embedded in /v1/stats, logged at boot and printed by -version.
type Build struct {
	Version     string `json:"version"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	Dirty       bool   `json:"dirty,omitempty"`
}

var (
	buildOnce sync.Once
	buildInfo Build
)

// ReadBuild returns the binary's build identity. Values degrade
// gracefully: binaries built outside a VCS checkout (or with buildvcs
// off) report "unknown" revision but still carry the Go version.
func ReadBuild() Build {
	buildOnce.Do(func() {
		buildInfo = Build{Version: "unknown", GoVersion: "unknown"}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		buildInfo.GoVersion = bi.GoVersion
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			buildInfo.Version = v
		} else {
			buildInfo.Version = "devel"
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildInfo.VCSRevision = s.Value
			case "vcs.time":
				buildInfo.VCSTime = s.Value
			case "vcs.modified":
				buildInfo.Dirty = s.Value == "true"
			}
		}
	})
	return buildInfo
}
