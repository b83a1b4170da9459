// Package fixture: rebuilds run on POST /admin/rebuild.
package fixture
