// Package repro is the root of the reproduction of "Censorship in the
// Wild: Analyzing Internet Filtering in Syria" (IMC 2014). The library
// lives under internal/ (core is the analysis engine; the other packages
// are the substrates) and the executables under cmd/. See README.md and
// DESIGN.md.
package repro
