// Package fixture: see ARCHITECTURE.md §1 and §2.
package fixture
