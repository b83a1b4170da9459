// Package fixture: see ARCHITECTURE.md §1.
package fixture
