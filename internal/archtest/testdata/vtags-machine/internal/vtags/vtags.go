// Package vtags reaches the machine through an intermediate package only.
package vtags

import _ "repro/internal/tagobs"
