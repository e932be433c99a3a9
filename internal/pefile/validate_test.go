package pefile

import "testing"

func TestValidateCleanImage(t *testing.T) {
	f := buildSample(t)
	f.Layout()
	if issues := f.Validate(); len(issues) != 0 {
		t.Errorf("clean image has issues: %v", issues)
	}
}

func TestValidateDetectsProblems(t *testing.T) {
	t.Run("entry outside sections", func(t *testing.T) {
		f := buildSample(t)
		f.SetEntryPoint(0xFF0000)
		if len(f.Validate()) == 0 {
			t.Error("bad entry point not reported")
		}
	})
	t.Run("duplicate names", func(t *testing.T) {
		f := buildSample(t)
		if err := f.RenameSection(".data", ".text"); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, is := range f.Validate() {
			if is.Section == ".text" && is.Problem != "" {
				found = true
			}
		}
		if !found {
			t.Error("duplicate section name not reported")
		}
	})
	t.Run("overlapping VAs", func(t *testing.T) {
		f := buildSample(t)
		f.Sections[1].VirtualAddress = f.Sections[0].VirtualAddress
		if len(f.Validate()) == 0 {
			t.Error("overlapping sections not reported")
		}
	})
	t.Run("misaligned raw size", func(t *testing.T) {
		f := buildSample(t)
		f.Layout()
		f.Sections[0].SizeOfRawData++
		if len(f.Validate()) == 0 {
			t.Error("misaligned raw size not reported")
		}
	})
	t.Run("bad alignment", func(t *testing.T) {
		f := buildSample(t)
		f.Optional.FileAlignment = 0x300 // not a power of two
		if len(f.Validate()) == 0 {
			t.Error("non-power-of-two alignment not reported")
		}
	})
}

func TestValidationIssueString(t *testing.T) {
	if got := (ValidationIssue{Problem: "p"}).String(); got != "p" {
		t.Errorf("file-level issue = %q", got)
	}
	if got := (ValidationIssue{Section: ".x", Problem: "p"}).String(); got != ".x: p" {
		t.Errorf("section issue = %q", got)
	}
}
