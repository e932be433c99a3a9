package pefile

import "fmt"

// ValidationIssue describes one structural problem found by Validate.
type ValidationIssue struct {
	Section string // empty for file-level issues
	Problem string
}

func (v ValidationIssue) String() string {
	if v.Section == "" {
		return v.Problem
	}
	return v.Section + ": " + v.Problem
}

// Validate checks the structural invariants a loader (and this package's
// own mutators) rely on, returning every violation found. A nil slice
// means the image is well-formed.
func (f *File) Validate() []ValidationIssue {
	var issues []ValidationIssue
	add := func(section, problem string) {
		issues = append(issues, ValidationIssue{Section: section, Problem: problem})
	}

	fa, sa := f.Optional.FileAlignment, f.Optional.SectionAlignment
	if fa == 0 || fa&(fa-1) != 0 {
		add("", fmt.Sprintf("file alignment %#x is not a power of two", fa))
	}
	if sa == 0 || sa&(sa-1) != 0 {
		add("", fmt.Sprintf("section alignment %#x is not a power of two", sa))
	}
	if f.Optional.AddressOfEntryPoint != 0 && f.EntrySection() == nil {
		add("", fmt.Sprintf("entry point %#x not inside any section", f.Optional.AddressOfEntryPoint))
	}

	seen := make(map[string]int)
	for i, s := range f.Sections {
		seen[s.Name]++
		if fa != 0 && s.PointerToRawData%fa != 0 {
			add(s.Name, fmt.Sprintf("raw pointer %#x not file-aligned", s.PointerToRawData))
		}
		if fa != 0 && s.SizeOfRawData%fa != 0 {
			add(s.Name, fmt.Sprintf("raw size %#x not file-aligned", s.SizeOfRawData))
		}
		if sa != 0 && s.VirtualAddress%sa != 0 {
			add(s.Name, fmt.Sprintf("virtual address %#x not section-aligned", s.VirtualAddress))
		}
		if uint32(len(s.Data)) != s.SizeOfRawData {
			add(s.Name, fmt.Sprintf("data length %d != raw size %d", len(s.Data), s.SizeOfRawData))
		}
		end := s.VirtualAddress + align(maxU32(s.VirtualSize, 1), maxU32(sa, 1))
		if end > f.Optional.SizeOfImage {
			add(s.Name, fmt.Sprintf("extends past SizeOfImage (%#x > %#x)", end, f.Optional.SizeOfImage))
		}
		for _, t := range f.Sections[i+1:] {
			if s.Contains(t.VirtualAddress) || t.Contains(s.VirtualAddress) {
				add(s.Name, fmt.Sprintf("virtual range overlaps %q", t.Name))
			}
		}
	}
	for name, n := range seen {
		if n > 1 {
			add(name, fmt.Sprintf("duplicated %d times", n))
		}
	}
	if int(f.FileHeader.NumberOfSections) != len(f.Sections) {
		add("", fmt.Sprintf("header section count %d != %d sections",
			f.FileHeader.NumberOfSections, len(f.Sections)))
	}
	return issues
}
