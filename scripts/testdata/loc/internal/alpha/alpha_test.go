package alpha

import "testing"

func TestAdd(t *testing.T) {}
