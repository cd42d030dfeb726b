package vtags

import rec "repro/internal/reclaim"

var _ = rec.Attacher(nil)
