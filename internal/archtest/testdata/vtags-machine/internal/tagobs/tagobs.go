package tagobs

import _ "repro/internal/machine"
