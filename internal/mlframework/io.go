package mlframework

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"negativaml/internal/elfx"
)

// ManifestName is the metadata file written next to the libraries.
const ManifestName = "install.json"

// Manifest is the serializable install metadata (everything except library
// bytes, which live in the .so files themselves).
type Manifest struct {
	Framework       string               `json:"framework"`
	Version         string               `json:"version"`
	LibNames        []string             `json:"lib_names"`
	InitCalls       []LibFunc            `json:"init_calls"`
	FamilyCalls     map[string][]LibFunc `json:"family_calls"`
	FamilyLib       map[string]string    `json:"family_lib"`
	BaseHeapCPU     int64                `json:"base_heap_cpu"`
	GPUPoolFraction float64              `json:"gpu_pool_fraction"`
}

// Validate rejects manifests no install could have written: a manifest names
// the framework and at least one library, exactly once each. Callers feeding
// untrusted trees (ingestion) rely on this to fail loudly instead of
// building a half-empty install.
func (m *Manifest) Validate() error {
	if m.Framework == "" {
		return fmt.Errorf("mlframework: manifest missing framework")
	}
	if len(m.LibNames) == 0 {
		return fmt.Errorf("mlframework: manifest lists no libraries")
	}
	seen := make(map[string]bool, len(m.LibNames))
	for _, name := range m.LibNames {
		if name == "" {
			return fmt.Errorf("mlframework: manifest has an empty library name")
		}
		if name != filepath.Base(name) {
			return fmt.Errorf("mlframework: manifest library name %q is not a bare file name", name)
		}
		if seen[name] {
			return fmt.Errorf("mlframework: manifest lists %s twice", name)
		}
		seen[name] = true
	}
	return nil
}

// WriteTo materializes the install on disk: one file per shared library
// plus install.json with the runtime metadata. The directory is created if
// needed.
func (in *Install) WriteTo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mlframework: %w", err)
	}
	for _, name := range in.LibNames {
		lib := in.Libs[name]
		if err := os.WriteFile(filepath.Join(dir, name), lib.Data, 0o644); err != nil {
			return fmt.Errorf("mlframework: write %s: %w", name, err)
		}
	}
	m := Manifest{
		Framework:       in.Framework,
		Version:         in.Version,
		LibNames:        in.LibNames,
		InitCalls:       in.InitCalls,
		FamilyCalls:     in.FamilyCalls,
		FamilyLib:       in.FamilyLib,
		BaseHeapCPU:     in.BaseHeapCPU,
		GPUPoolFraction: in.GPUPoolFraction,
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("mlframework: marshal manifest: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), blob, 0o644)
}

// ReadManifest loads and validates the install.json in dir without touching
// the library files.
func ReadManifest(dir string) (*Manifest, error) {
	blob, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("mlframework: %w", err)
	}
	return ParseManifest(blob)
}

// ParseManifest decodes and validates install.json bytes. Ingestion uses it
// on the bytes its classified walk already read (and hashed), so the
// manifest it validates is exactly the one it fingerprinted.
func ParseManifest(blob []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("mlframework: parse manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Install converts the manifest plus already-parsed libraries into an
// Install. Every manifest library must be present: a partial tree would
// profile as a smaller install and silently under-retain.
func (m *Manifest) Install(libs map[string]*elfx.Library) (*Install, error) {
	in := &Install{
		Framework:       m.Framework,
		Version:         m.Version,
		LibNames:        m.LibNames,
		Libs:            make(map[string]*elfx.Library, len(m.LibNames)),
		InitCalls:       m.InitCalls,
		FamilyCalls:     m.FamilyCalls,
		FamilyLib:       m.FamilyLib,
		BaseHeapCPU:     m.BaseHeapCPU,
		GPUPoolFraction: m.GPUPoolFraction,
	}
	for _, name := range m.LibNames {
		lib, ok := libs[name]
		if !ok || lib == nil {
			return nil, fmt.Errorf("mlframework: manifest names %s but the tree has no such library", name)
		}
		if lib.Soname != "" && lib.Soname != name {
			return nil, fmt.Errorf("mlframework: %s carries DT_SONAME %q (mismatched manifest?)", name, lib.Soname)
		}
		in.Libs[name] = lib
	}
	return in, nil
}

// ReadFrom loads an install previously written with WriteTo.
func ReadFrom(dir string) (*Install, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	libs := make(map[string]*elfx.Library, len(m.LibNames))
	for _, name := range m.LibNames {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("mlframework: %w", err)
		}
		lib, err := elfx.Parse(name, data)
		if err != nil {
			return nil, fmt.Errorf("mlframework: %s: %w", name, err)
		}
		libs[name] = lib
	}
	return m.Install(libs)
}
