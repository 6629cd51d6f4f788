package core

import (
	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
)

// OpenOnMedium boots a fresh store whose persists are mirrored onto med, the
// way OpenFile boots one on an empty directory: tests in package core_test
// count what reaches the medium with it.
func OpenOnMedium(cfg Config, med pmem.Medium) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dev := device.New(device.OptanePmem)
	return bootOnMedium(cfg, dev, pmem.NewArenaOn(dev, cfg.ArenaBytes, med))
}
