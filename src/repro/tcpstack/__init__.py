"""Software TCP comparison stack (Fig 8)."""
