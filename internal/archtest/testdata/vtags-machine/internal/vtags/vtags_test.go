package vtags

// A test file's imports are not the package's: this one is not convicted.
import _ "repro/internal/machine"
