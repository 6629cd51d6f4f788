package core

import (
	"testing"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/storetest"
)

func TestConformance(t *testing.T) {
	storetest.Run(t, "ChameleonDB", func(t *testing.T) kvstore.Store {
		t.Helper()
		s, err := Open(TestConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}, storetest.Options{Keys: 8000})
}

func TestConformanceWriteIntensive(t *testing.T) {
	storetest.Run(t, "ChameleonDB-WIM", func(t *testing.T) kvstore.Store {
		t.Helper()
		cfg := TestConfig()
		cfg.WriteIntensive = true
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}, storetest.Options{Keys: 8000})
}
