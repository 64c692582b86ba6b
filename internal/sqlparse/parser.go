package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sqltypes"
)

// Parse parses a single SQL statement.
func Parse(sql string) (Statement, error) {
	stmts, err := ParseScript(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(sql string) ([]Statement, error) {
	p := &parser{lx: lexer{src: sql}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var out []Statement
	for {
		for p.isOp(";") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.tok.kind == tokEOF {
			break
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if p.tok.kind != tokEOF && !p.isOp(";") {
			return nil, p.unexpected("end of statement")
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sql: empty statement")
	}
	return out, nil
}

type parser struct {
	lx      lexer
	tok     token
	nparams int
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) unexpected(want string) error {
	got := p.tok.text
	if p.tok.kind == tokEOF {
		got = "end of input"
	}
	return fmt.Errorf("sql: expected %s, found %q at offset %d", want, got, p.tok.pos)
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == kw
}

func (p *parser) isOp(op string) bool {
	return p.tok.kind == tokOp && p.tok.text == op
}

// accept consumes the token if it is the given keyword.
func (p *parser) accept(kw string) (bool, error) {
	if p.isKeyword(kw) {
		return true, p.advance()
	}
	return false, nil
}

// expect consumes a required keyword.
func (p *parser) expect(kw string) error {
	if !p.isKeyword(kw) {
		return p.unexpected(kw)
	}
	return p.advance()
}

// expectOp consumes a required operator/punctuation token.
func (p *parser) expectOp(op string) error {
	if !p.isOp(op) {
		return p.unexpected("'" + op + "'")
	}
	return p.advance()
}

// ident consumes an identifier (keywords usable as identifiers in obvious
// positions are accepted too).
func (p *parser) ident() (string, error) {
	if p.tok.kind == tokIdent {
		name := p.tok.text
		return name, p.advance()
	}
	// Allow non-reserved-looking keywords as identifiers (e.g. a table
	// named "user" or a column named "key").
	if p.tok.kind == tokKeyword {
		switch p.tok.text {
		case "USER", "KEY", "LEVEL", "COUNT", "STATUS", "CHECKPOINT", "READ", "TIMESTAMP":
			name := strings.ToLower(p.tok.text)
			return name, p.advance()
		}
	}
	return "", p.unexpected("identifier")
}

// tableRef parses name or db.name.
func (p *parser) tableRef() (TableRef, error) {
	first, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	if p.isOp(".") {
		if err := p.advance(); err != nil {
			return TableRef{}, err
		}
		second, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		return TableRef{Database: first, Name: second}, nil
	}
	return TableRef{Name: first}, nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("CREATE"):
		return p.parseCreate()
	case p.isKeyword("DROP"):
		return p.parseDrop()
	case p.isKeyword("BEGIN"), p.isKeyword("START"):
		if p.isKeyword("START") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect("TRANSACTION"); err != nil {
				return nil, err
			}
			return &BeginTxn{}, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Optional TRANSACTION noise word.
		if _, err := p.accept("TRANSACTION"); err != nil {
			return nil, err
		}
		return &BeginTxn{}, nil
	case p.isKeyword("COMMIT"):
		return &CommitTxn{}, p.advance()
	case p.isKeyword("ROLLBACK"):
		return &RollbackTxn{}, p.advance()
	case p.isKeyword("USE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &UseDatabase{Name: name}, nil
	case p.isKeyword("SET"):
		return p.parseSet()
	case p.isKeyword("SHOW"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch {
		case p.isKeyword("TABLES"):
			return &Show{What: "TABLES"}, p.advance()
		case p.isKeyword("DATABASES"):
			return &Show{What: "DATABASES"}, p.advance()
		}
		return nil, p.unexpected("TABLES or DATABASES")
	case p.isKeyword("CALL"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var args []Expr
		if !p.isOp(")") {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, e)
				if !p.isOp(",") {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &Call{Name: name, Args: args}, nil
	case p.isKeyword("GRANT"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("ON"); err != nil {
			return nil, err
		}
		db, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("TO"); err != nil {
			return nil, err
		}
		user, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Grant{Database: db, User: user}, nil
	}
	return nil, p.unexpected("statement")
}

func (p *parser) parseSet() (Statement, error) {
	if err := p.advance(); err != nil { // consume SET
		return nil, err
	}
	if p.isKeyword("ISOLATION") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("LEVEL"); err != nil {
			return nil, err
		}
		switch {
		case p.isKeyword("READ"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect("COMMITTED"); err != nil {
				return nil, err
			}
			return &SetIsolation{Level: "READ COMMITTED"}, nil
		case p.isKeyword("SNAPSHOT"):
			return &SetIsolation{Level: "SNAPSHOT"}, p.advance()
		case p.isKeyword("SERIALIZABLE"):
			return &SetIsolation{Level: "SERIALIZABLE"}, p.advance()
		}
		return nil, p.unexpected("isolation level")
	}
	// CONSISTENCY is deliberately NOT a reserved keyword (existing schemas
	// may use it as an identifier); it is recognized positionally after SET,
	// like the level words below.
	if p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, "CONSISTENCY") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Levels lex as plain identifiers; match them case-insensitively.
		if p.tok.kind == tokIdent || p.tok.kind == tokKeyword {
			switch strings.ToUpper(p.tok.text) {
			case "ANY", "SESSION", "STRONG":
				level := strings.ToUpper(p.tok.text)
				return &SetConsistency{Level: level}, p.advance()
			}
		}
		return nil, p.unexpected("consistency level (ANY, SESSION or STRONG)")
	}
	// DEADLINE is recognized positionally for the same reason as CONSISTENCY.
	// Forms: SET DEADLINE '250ms' (Go duration literal), SET DEADLINE 250
	// (milliseconds), SET DEADLINE OFF | 0 (disable).
	if p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, "DEADLINE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch {
		case p.tok.kind == tokString:
			d, err := time.ParseDuration(p.tok.text)
			if err != nil || d < 0 {
				return nil, p.unexpected("duration literal like '250ms'")
			}
			return &SetDeadline{D: d}, p.advance()
		case p.tok.kind == tokInt:
			ms, err := strconv.Atoi(p.tok.text)
			if err != nil || ms < 0 {
				return nil, p.unexpected("non-negative millisecond count")
			}
			return &SetDeadline{D: time.Duration(ms) * time.Millisecond}, p.advance()
		case (p.tok.kind == tokIdent || p.tok.kind == tokKeyword) && strings.EqualFold(p.tok.text, "OFF"):
			return &SetDeadline{D: 0}, p.advance()
		}
		return nil, p.unexpected("deadline ('250ms', milliseconds, or OFF)")
	}
	if !p.isOp("@") {
		return nil, p.unexpected("@var or ISOLATION or CONSISTENCY or DEADLINE")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &SetVar{Name: name, Value: val}, nil
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.advance(); err != nil { // consume CREATE
		return nil, err
	}
	temp := false
	if p.isKeyword("TEMP") || p.isKeyword("TEMPORARY") {
		temp = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	switch {
	case p.isKeyword("DATABASE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		ine, err := p.ifNotExists()
		if err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &CreateDatabase{Name: name, IfNotExists: ine}, nil
	case p.isKeyword("TABLE"):
		return p.parseCreateTable(temp)
	case p.isKeyword("SEQUENCE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		seq := &CreateSequence{Name: ref, Start: 1, Increment: 1}
		for {
			switch {
			case p.isKeyword("START"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				n, err := p.intLiteral()
				if err != nil {
					return nil, err
				}
				seq.Start = n
			case p.isKeyword("INCREMENT"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				n, err := p.intLiteral()
				if err != nil {
					return nil, err
				}
				seq.Increment = n
			default:
				return seq, nil
			}
		}
	case p.isKeyword("TRIGGER"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("AFTER"); err != nil {
			return nil, err
		}
		var event string
		switch {
		case p.isKeyword("INSERT"):
			event = "INSERT"
		case p.isKeyword("UPDATE"):
			event = "UPDATE"
		case p.isKeyword("DELETE"):
			event = "DELETE"
		default:
			return nil, p.unexpected("INSERT, UPDATE or DELETE")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("ON"); err != nil {
			return nil, err
		}
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expect("DO"); err != nil {
			return nil, err
		}
		body, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &CreateTrigger{Name: name, Event: event, Table: ref, Body: body}, nil
	case p.isKeyword("PROCEDURE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var params []string
		if !p.isOp(")") {
			for {
				pn, err := p.ident()
				if err != nil {
					return nil, err
				}
				params = append(params, pn)
				if !p.isOp(",") {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		if err := p.expect("BEGIN"); err != nil {
			return nil, err
		}
		var body []Statement
		for !p.isKeyword("END") {
			st, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			body = append(body, st)
			for p.isOp(";") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.advance(); err != nil { // consume END
			return nil, err
		}
		return &CreateProcedure{Name: name, Params: params, Body: body}, nil
	case p.isKeyword("USER"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("IDENTIFIED"); err != nil {
			return nil, err
		}
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		if p.tok.kind != tokString {
			return nil, p.unexpected("password string")
		}
		pw := p.tok.text
		return &CreateUser{Name: name, Password: pw}, p.advance()
	}
	return nil, p.unexpected("DATABASE, TABLE, SEQUENCE, TRIGGER, PROCEDURE or USER")
}

func (p *parser) ifNotExists() (bool, error) {
	if !p.isKeyword("IF") {
		return false, nil
	}
	if err := p.advance(); err != nil {
		return false, err
	}
	if err := p.expect("NOT"); err != nil {
		return false, err
	}
	if err := p.expect("EXISTS"); err != nil {
		return false, err
	}
	return true, nil
}

func (p *parser) parseCreateTable(temp bool) (Statement, error) {
	if err := p.advance(); err != nil { // consume TABLE
		return nil, err
	}
	ine, err := p.ifNotExists()
	if err != nil {
		return nil, err
	}
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		kind, err := p.columnType()
		if err != nil {
			return nil, err
		}
		col := ColumnDef{Name: name, Type: kind}
		for {
			switch {
			case p.isKeyword("PRIMARY"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expect("KEY"); err != nil {
					return nil, err
				}
				col.PrimaryKey = true
				col.NotNull = true
				continue
			case p.isKeyword("UNIQUE"):
				col.Unique = true
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			case p.isKeyword("AUTO_INCREMENT"):
				col.AutoIncrement = true
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			case p.isKeyword("NOT"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expect("NULL"); err != nil {
					return nil, err
				}
				col.NotNull = true
				continue
			case p.isKeyword("DEFAULT"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				e, err := p.parsePrimary()
				if err != nil {
					return nil, err
				}
				col.Default = e
				continue
			}
			break
		}
		cols = append(cols, col)
		if p.isOp(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Table: ref, Columns: cols, Temp: temp, IfNotExists: ine}, nil
}

func (p *parser) columnType() (sqltypes.Kind, error) {
	if p.tok.kind != tokKeyword {
		return 0, p.unexpected("column type")
	}
	var kind sqltypes.Kind
	switch p.tok.text {
	case "INTEGER", "INT", "BIGINT":
		kind = sqltypes.KindInt
	case "FLOAT", "DOUBLE":
		kind = sqltypes.KindFloat
	case "TEXT", "VARCHAR":
		kind = sqltypes.KindString
	case "BOOLEAN", "BOOL":
		kind = sqltypes.KindBool
	case "TIMESTAMP":
		kind = sqltypes.KindTime
	default:
		return 0, p.unexpected("column type")
	}
	if err := p.advance(); err != nil {
		return 0, err
	}
	// Optional length suffix: VARCHAR(255).
	if p.isOp("(") {
		if err := p.advance(); err != nil {
			return 0, err
		}
		if _, err := p.intLiteral(); err != nil {
			return 0, err
		}
		if err := p.expectOp(")"); err != nil {
			return 0, err
		}
	}
	return kind, nil
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.advance(); err != nil { // consume DROP
		return nil, err
	}
	switch {
	case p.isKeyword("DATABASE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropDatabase{Name: name}, nil
	case p.isKeyword("TABLE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		ifx := false
		if p.isKeyword("IF") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect("EXISTS"); err != nil {
				return nil, err
			}
			ifx = true
		}
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		return &DropTable{Table: ref, IfExists: ifx}, nil
	case p.isKeyword("SEQUENCE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		return &DropSequence{Name: ref}, nil
	case p.isKeyword("TRIGGER"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTrigger{Name: name}, nil
	case p.isKeyword("PROCEDURE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropProcedure{Name: name}, nil
	}
	return nil, p.unexpected("DATABASE, TABLE, SEQUENCE, TRIGGER or PROCEDURE")
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.advance(); err != nil { // consume INSERT
		return nil, err
	}
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: ref}
	if p.isOp("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.isOp(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.advance(); err != nil { // consume UPDATE
		return nil, err
	}
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	if err := p.expect("SET"); err != nil {
		return nil, err
	}
	up := &Update{Table: ref}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, Assignment{Column: col, Value: val})
		if !p.isOp(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if ok, err := p.accept("WHERE"); err != nil {
		return nil, err
	} else if ok {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.advance(); err != nil { // consume DELETE
		return nil, err
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: ref}
	if ok, err := p.accept("WHERE"); err != nil {
		return nil, err
	} else if ok {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.advance(); err != nil { // consume SELECT
		return nil, err
	}
	sel := &Select{Limit: -1}
	if ok, err := p.accept("DISTINCT"); err != nil {
		return nil, err
	} else if ok {
		sel.Distinct = true
	}
	for {
		if p.isOp("*") {
			sel.Items = append(sel.Items, SelectItem{Star: true})
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if ok, err := p.accept("AS"); err != nil {
				return nil, err
			} else if ok {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.tok.kind == tokIdent {
				item.Alias = p.tok.text
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			sel.Items = append(sel.Items, item)
		}
		if !p.isOp(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if ok, err := p.accept("FROM"); err != nil {
		return nil, err
	} else if !ok {
		sel.NoTable = true
		return sel, nil
	}
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	sel.From = ref
	if p.tok.kind == tokIdent {
		sel.FromAlias = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("INNER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if ok, err := p.accept("JOIN"); err != nil {
		return nil, err
	} else if ok {
		jref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		j := &JoinClause{Table: jref}
		if p.tok.kind == tokIdent {
			j.Alias = p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expect("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		j.On = on
		sel.Join = j
	}
	if ok, err := p.accept("WHERE"); err != nil {
		return nil, err
	} else if ok {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.isKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, g)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.isKeyword("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if ok, err := p.accept("DESC"); err != nil {
				return nil, err
			} else if ok {
				item.Desc = true
			} else if _, err := p.accept("ASC"); err != nil {
				return nil, err
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if ok, err := p.accept("LIMIT"); err != nil {
		return nil, err
	} else if ok {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
		if ok, err := p.accept("OFFSET"); err != nil {
			return nil, err
		} else if ok {
			off, err := p.intLiteral()
			if err != nil {
				return nil, err
			}
			sel.Offset = off
		}
	}
	if p.isKeyword("FOR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("UPDATE"); err != nil {
			return nil, err
		}
		sel.ForUpdate = true
	}
	return sel, nil
}

func (p *parser) intLiteral() (int64, error) {
	neg := false
	if p.isOp("-") {
		neg = true
		if err := p.advance(); err != nil {
			return 0, err
		}
	}
	if p.tok.kind != tokInt {
		return 0, p.unexpected("integer literal")
	}
	n, err := strconv.ParseInt(p.tok.text, 10, 64)
	if err != nil {
		return 0, err
	}
	if neg {
		n = -n
	}
	return n, p.advance()
}

// ---- Expression parsing (precedence climbing) ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.isKeyword("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		operand, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Operand: operand}, nil
	}
	return p.parsePredicate()
}

// parsePredicate handles comparison, IN, BETWEEN, LIKE, IS NULL.
func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	negate := false
	if p.isKeyword("NOT") {
		// NOT IN / NOT BETWEEN / NOT LIKE
		negate = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	switch {
	case p.tok.kind == tokOp && isCompareOp(p.tok.text):
		if negate {
			return nil, p.unexpected("IN, BETWEEN or LIKE after NOT")
		}
		op := p.tok.text
		if op == "<>" {
			op = "!="
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, Left: left, Right: right}, nil
	case p.isKeyword("IN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &InExpr{Left: left, Negate: negate}
		if p.isKeyword("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			in.Sub = sub
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.isOp(",") {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.isKeyword("BETWEEN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expect("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Operand: left, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.isKeyword("LIKE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		e := Expr(&BinaryExpr{Op: "LIKE", Left: left, Right: right})
		if negate {
			e = &UnaryExpr{Op: "NOT", Operand: e}
		}
		return e, nil
	case p.isKeyword("IS"):
		if negate {
			return nil, p.unexpected("IN, BETWEEN or LIKE after NOT")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		neg := false
		if p.isKeyword("NOT") {
			neg = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expect("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Operand: left, Negate: neg}, nil
	}
	if negate {
		return nil, p.unexpected("IN, BETWEEN or LIKE after NOT")
	}
	return left, nil
}

func isCompareOp(op string) bool {
	switch op {
	case "=", "!=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.isOp("+") || p.isOp("-") || p.isOp("||") {
		op := p.tok.text
		if op == "||" {
			op = "+" // string concatenation folds into +
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isOp("*") || p.isOp("/") || p.isOp("%") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.isOp("-") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := operand.(*Literal); ok {
			switch lit.Val.Kind() {
			case sqltypes.KindInt:
				return &Literal{Val: sqltypes.NewInt(-lit.Val.Int())}, nil
			case sqltypes.KindFloat:
				f := -lit.Val.Float()
				if f == 0 {
					f = 0 // normalize -0.0: "-0" would not render stably
				}
				return &Literal{Val: sqltypes.NewFloat(f)}, nil
			}
		}
		return &UnaryExpr{Op: "-", Operand: operand}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.tok.kind {
	case tokInt:
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, err
		}
		return &Literal{Val: sqltypes.NewInt(n)}, p.advance()
	case tokFloat:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, err
		}
		return &Literal{Val: sqltypes.NewFloat(f)}, p.advance()
	case tokString:
		return &Literal{Val: sqltypes.NewString(p.tok.text)}, p.advance()
	case tokParam:
		p.nparams++
		return &Param{Index: p.nparams - 1}, p.advance()
	case tokKeyword:
		switch p.tok.text {
		case "NULL":
			return &Literal{Val: sqltypes.Null}, p.advance()
		case "TRUE":
			return &Literal{Val: sqltypes.NewBool(true)}, p.advance()
		case "FALSE":
			return &Literal{Val: sqltypes.NewBool(false)}, p.advance()
		case "COUNT", "NEXTVAL":
			return p.parseFuncCall(p.tok.text)
		case "TIMESTAMP":
			// TIMESTAMP 'rfc3339' literal (how a bound time value renders).
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tokString {
				// Bare keyword used as a column name.
				return p.finishIdentExpr("timestamp")
			}
			ts, err := time.Parse(time.RFC3339Nano, p.tok.text)
			if err != nil {
				return nil, fmt.Errorf("sql: bad timestamp literal %q: %v", p.tok.text, err)
			}
			return &Literal{Val: sqltypes.NewTime(ts)}, p.advance()
		}
		// Keywords usable as bare identifiers in expressions.
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return p.finishIdentExpr(name)
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isOp("(") {
			return p.parseFuncArgs(strings.ToUpper(name))
		}
		return p.finishIdentExpr(name)
	case tokOp:
		switch p.tok.text {
		case "(":
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "@":
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &VarRef{Name: name}, nil
		case "*":
			// COUNT(*) handled in parseFuncArgs; bare * invalid here.
		}
	}
	return nil, p.unexpected("expression")
}

// finishIdentExpr handles trailing .col qualification.
func (p *parser) finishIdentExpr(name string) (Expr, error) {
	if p.isOp(".") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Qualifier: name, Name: col}, nil
	}
	return &ColumnRef{Name: name}, nil
}

// parseFuncCall consumes the current keyword token as a function name.
func (p *parser) parseFuncCall(name string) (Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if !p.isOp("(") {
		// NEXTVAL without parens is invalid; COUNT likewise.
		return nil, p.unexpected("'('")
	}
	return p.parseFuncArgs(name)
}

// parseFuncArgs parses "(args)" for the given upper-cased function name.
func (p *parser) parseFuncArgs(name string) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	fn := &FuncExpr{Name: name}
	if p.isOp("*") {
		fn.Star = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else if !p.isOp(")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fn.Args = append(fn.Args, e)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fn, nil
}
