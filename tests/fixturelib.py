"""Shared fixture corpus: a miniature Spider-format train directory, a
KaggleDBQA-format test directory, and Spider-SS decomposition records.

Everything here is plain data plus builders that materialize it on disk
(manifests as JSON, databases as SQLite built from DDL). The replay-store
generator and the test suite both import this module, so the corpora are
byte-stable across builds.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

# ---------------------------------------------------------------------------
# Train corpus: four source databases plus one filler database
# ---------------------------------------------------------------------------

# tables.json-style schema entries. foreign_keys entries may be
# [from_idx, to_idx] or, for composite keys, [[from...], [to...]].
TRAIN_TABLES = [
    {
        "db_id": "college_2",
        "table_names_original": [
            "classroom", "department", "course", "instructor", "section",
            "teaches", "student", "takes", "advisor", "time_slot", "prereq",
        ],
        "column_names_original": [
            [-1, "*"],
            [0, "building"], [0, "room_number"], [0, "capacity"],          # 1-3
            [1, "dept_name"], [1, "building"], [1, "budget"],              # 4-6
            [2, "course_id"], [2, "title"], [2, "dept_name"], [2, "credits"],  # 7-10
            [3, "ID"], [3, "name"], [3, "dept_name"], [3, "salary"],       # 11-14
            [4, "course_id"], [4, "sec_id"], [4, "semester"], [4, "year"],  # 15-18
            [4, "building"], [4, "room_number"], [4, "time_slot_id"],      # 19-21
            [5, "ID"], [5, "course_id"], [5, "sec_id"], [5, "semester"], [5, "year"],  # 22-26
            [6, "ID"], [6, "name"], [6, "dept_name"], [6, "tot_cred"],     # 27-30
            [7, "ID"], [7, "course_id"], [7, "sec_id"], [7, "semester"], [7, "year"], [7, "grade"],  # 31-36
            [8, "s_ID"], [8, "i_ID"],                                      # 37-38
            [9, "time_slot_id"], [9, "day"], [9, "start_hr"], [9, "start_min"], [9, "end_hr"], [9, "end_min"],  # 39-44
            [10, "course_id"], [10, "prereq_id"],                          # 45-46
        ],
        "column_types": [
            "text",
            "text", "text", "number",
            "text", "text", "number",
            "text", "text", "text", "number",
            "text", "text", "text", "number",
            "text", "text", "text", "number", "text", "text", "text",
            "text", "text", "text", "text", "number",
            "text", "text", "text", "number",
            "text", "text", "text", "text", "number", "text",
            "text", "text",
            "text", "text", "number", "number", "number", "number",
            "text", "text",
        ],
        "primary_keys": [1, 2, 4, 7, 11, 15, 16, 17, 18, 22, 23, 24, 25, 26,
                         27, 31, 32, 33, 34, 35, 37, 39, 40, 41, 42, 45, 46],
        "foreign_keys": [
            [9, 4],                     # course.dept_name -> department
            [13, 4],                    # instructor.dept_name -> department
            [15, 7],                    # section.course_id -> course
            [[19, 20], [1, 2]],         # section.(building, room_number) -> classroom
            [[23, 24, 25, 26], [15, 16, 17, 18]],  # teaches -> section
            [22, 11],                   # teaches.ID -> instructor
            [29, 4],                    # student.dept_name -> department
            [[32, 33, 34, 35], [15, 16, 17, 18]],  # takes -> section
            [31, 27],                   # takes.ID -> student
            [38, 11],                   # advisor.i_ID -> instructor
            [37, 27],                   # advisor.s_ID -> student
            [45, 7],                    # prereq.course_id -> course
            [46, 7],                    # prereq.prereq_id -> course
        ],
    },
    {
        "db_id": "hr_1",
        "table_names_original": [
            "regions", "countries", "departments", "jobs", "employees",
            "job_history", "locations",
        ],
        "column_names_original": [
            [-1, "*"],
            [0, "REGION_ID"], [0, "REGION_NAME"],                           # 1-2
            [1, "COUNTRY_ID"], [1, "COUNTRY_NAME"], [1, "REGION_ID"],       # 3-5
            [2, "DEPARTMENT_ID"], [2, "DEPARTMENT_NAME"], [2, "MANAGER_ID"], [2, "LOCATION_ID"],  # 6-9
            [3, "JOB_ID"], [3, "JOB_TITLE"], [3, "MIN_SALARY"], [3, "MAX_SALARY"],  # 10-13
            [4, "EMPLOYEE_ID"], [4, "FIRST_NAME"], [4, "LAST_NAME"], [4, "EMAIL"],  # 14-17
            [4, "PHONE_NUMBER"], [4, "HIRE_DATE"], [4, "JOB_ID"], [4, "SALARY"],    # 18-21
            [4, "COMMISSION_PCT"], [4, "MANAGER_ID"], [4, "DEPARTMENT_ID"],         # 22-24
            [5, "EMPLOYEE_ID"], [5, "START_DATE"], [5, "END_DATE"], [5, "JOB_ID"], [5, "DEPARTMENT_ID"],  # 25-29
            [6, "LOCATION_ID"], [6, "STREET_ADDRESS"], [6, "POSTAL_CODE"], [6, "CITY"],  # 30-33
            [6, "STATE_PROVINCE"], [6, "COUNTRY_ID"],                                # 34-35
        ],
        "column_types": [
            "text",
            "number", "text",
            "text", "text", "number",
            "number", "text", "number", "number",
            "text", "text", "number", "number",
            "number", "text", "text", "text", "text", "text", "text",
            "number", "number", "number", "number",
            "number", "text", "text", "text", "number",
            "number", "text", "text", "text", "text", "text",
        ],
        "primary_keys": [1, 3, 6, 10, 14, 25, 26, 30],
        "foreign_keys": [
            [5, 1],                     # countries.REGION_ID -> regions
            [24, 6],                    # employees.DEPARTMENT_ID -> departments
            [20, 10],                   # employees.JOB_ID -> jobs
            [25, 14],                   # job_history.EMPLOYEE_ID -> employees
            [29, 6],                    # job_history.DEPARTMENT_ID -> departments
            [28, 10],                   # job_history.JOB_ID -> jobs
            [35, 3],                    # locations.COUNTRY_ID -> countries
        ],
    },
    {
        "db_id": "inn_1",
        "table_names_original": ["Rooms", "Reservations"],
        "column_names_original": [
            [-1, "*"],
            [0, "RoomId"], [0, "roomName"], [0, "beds"], [0, "bedType"],
            [0, "maxOccupancy"], [0, "basePrice"], [0, "decor"],            # 1-7
            [1, "Code"], [1, "Room"], [1, "CheckIn"], [1, "CheckOut"],
            [1, "Rate"], [1, "LastName"], [1, "FirstName"], [1, "Adults"], [1, "Kids"],  # 8-16
        ],
        "column_types": [
            "text",
            "text", "text", "number", "text", "number", "number", "text",
            "number", "text", "text", "text", "number", "text", "text",
            "number", "number",
        ],
        "primary_keys": [1, 8],
        "foreign_keys": [[9, 1]],       # Reservations.Room -> Rooms.RoomId
    },
    {
        "db_id": "product_catalog",
        "table_names_original": [
            "Attribute_Definitions", "Catalogs", "Catalog_Structure",
            "Catalog_Contents", "Catalog_Contents_Additional_Attributes",
        ],
        "column_names_original": [
            [-1, "*"],
            [0, "attribute_id"], [0, "attribute_name"], [0, "attribute_data_type"],  # 1-3
            [1, "catalog_id"], [1, "catalog_name"], [1, "catalog_publisher"],
            [1, "date_of_publication"], [1, "date_of_latest_revision"],     # 4-8
            [2, "catalog_level_number"], [2, "catalog_id"], [2, "catalog_level_name"],  # 9-11
            [3, "catalog_entry_id"], [3, "catalog_level_number"], [3, "parent_entry_id"],
            [3, "previous_entry_id"], [3, "next_entry_id"], [3, "catalog_entry_name"],
            [3, "product_stock_number"], [3, "price_in_dollars"], [3, "price_in_euros"],
            [3, "price_in_pounds"], [3, "capacity"], [3, "length"], [3, "height"],
            [3, "width"],                                                   # 12-25
            [4, "catalog_entry_id"], [4, "catalog_level_number"], [4, "attribute_id"],
            [4, "attribute_value"],                                         # 26-29
        ],
        "column_types": [
            "text",
            "number", "text", "text",
            "number", "text", "text", "time", "time",
            "number", "number", "text",
            "number", "number", "number", "number", "number", "text",
            "text", "number", "number", "number", "text", "text", "text", "text",
            "number", "number", "number", "text",
        ],
        "primary_keys": [1, 4, 9, 12],
        "foreign_keys": [
            [10, 4],                    # Catalog_Structure.catalog_id -> Catalogs
            [13, 9],                    # Catalog_Contents.catalog_level_number -> Catalog_Structure
            [26, 12],                   # CCAA.catalog_entry_id -> Catalog_Contents
            [27, 9],                    # CCAA.catalog_level_number -> Catalog_Structure
        ],
    },
    {
        "db_id": "flight_2",
        "table_names_original": ["flights"],
        "column_names_original": [
            [-1, "*"],
            [0, "flight_id"], [0, "origin"], [0, "destination"], [0, "airline"],
        ],
        "column_types": ["text", "number", "text", "text", "text"],
        "primary_keys": [1],
        "foreign_keys": [],
    },
]

# The four-database exemplar pool, in manifest order. The first sixteen rows
# mirror the pinned generic-prompt pairs; three hr_1 rows extend operator
# coverage (!=, *, /); the tail rows are fillers the sampler never selects.
TRAIN_EXAMPLES = [
    # -- college_2 --
    ("college_2", "Find the buildings which have rooms with capacity more than 50.",
     "SELECT DISTINCT building FROM classroom WHERE capacity > 50"),
    ("college_2", "Find the name and building of the department with the highest budget.",
     "SELECT dept_name, building FROM department ORDER BY budget DESC LIMIT 1"),
    ("college_2", "Find the title of courses that have two prerequisites?",
     "SELECT T1.title FROM course AS T1 JOIN prereq AS T2 ON T1.course_id = T2.course_id GROUP BY T2.course_id HAVING count(*) = 2"),
    ("college_2", "How many courses that do not have prerequisite?",
     "SELECT count(*) FROM course WHERE course_id NOT IN (SELECT course_id FROM prereq)"),
    ("college_2", "Find the total budgets of the Marketing or Finance department.",
     "SELECT sum(budget) FROM department WHERE dept_name = 'Marketing' OR dept_name = 'Finance'"),
    ("college_2", "Find the department name of the instructor whose name contains 'Soisalon'.",
     "SELECT dept_name FROM instructor WHERE name LIKE '%Soisalon%'"),
    ("college_2", "Find the title of course that is provided by both Statistics and Psychology departments.",
     "SELECT title FROM course WHERE dept_name = 'Statistics' INTERSECT SELECT title FROM course WHERE dept_name = 'Psychology'"),
    ("college_2", "Find the title of course that is provided by Statistics but not Psychology departments.",
     "SELECT title FROM course WHERE dept_name = 'Statistics' EXCEPT SELECT title FROM course WHERE dept_name = 'Psychology'"),
    ("college_2", "Find courses that ran in Fall 2009 or in Spring 2010.",
     "SELECT course_id FROM SECTION WHERE semester = 'Fall' AND YEAR = 2009 UNION SELECT course_id FROM SECTION WHERE semester = 'Spring' AND YEAR = 2010"),
    ("college_2", "Find the names and average salaries of all departments whose average salary is greater than 42000.",
     "SELECT dept_name, AVG(salary) FROM instructor GROUP BY dept_name HAVING AVG (salary) > 42000"),
    # -- hr_1 --
    ("hr_1", "display job Title, the difference between minimum and maximum salaries for those jobs which max salary within the range 12000 to 18000.",
     "SELECT job_title, max_salary - min_salary FROM jobs WHERE max_salary BETWEEN 12000 AND 18000"),
    ("hr_1", "display the employee ID for each employee and the date on which he ended his previous job.",
     "SELECT employee_id, MAX(end_date) FROM job_history GROUP BY employee_id"),
    ("hr_1", "return the smallest salary for every departments.",
     "SELECT MIN(salary), department_id FROM employees GROUP BY department_id"),
    ("hr_1", "display the department id and the total salary for those departments which contains at least two employees.",
     "SELECT department_id, SUM(salary) FROM employees GROUP BY department_id HAVING count(*) >= 2"),
    ("hr_1", "display the first name of employees who do not work in department 40.",
     "SELECT first_name FROM employees WHERE department_id != 40"),
    ("hr_1", "display the employee id and the annual salary for each employee.",
     "SELECT employee_id, salary * 12 FROM employees"),
    ("hr_1", "display the job id and half the salary gap for each job.",
     "SELECT job_id, (max_salary - min_salary) / 2 FROM jobs"),
    # -- inn_1 --
    ("inn_1", "List how many times the number of people in the room reached the maximum occupancy of the room. The number of people include adults and kids.",
     "SELECT count(*) FROM Reservations AS T1 JOIN Rooms AS T2 ON T1.Room = T2.RoomId WHERE T2.maxOccupancy = T1.Adults + T1.Kids;"),
    # -- product_catalog --
    ("product_catalog", "Find the names of the products with length smaller than 3 or height greater than 5.",
     "SELECT catalog_entry_name FROM catalog_contents WHERE LENGTH < 3 OR width > 5"),
    # -- fillers: nothing new to cover --
    ("college_2", "How many classrooms are there?",
     "SELECT count(*) FROM classroom"),
    ("hr_1", "List all region names.",
     "SELECT REGION_NAME FROM regions"),
    ("flight_2", "How many flights are there?",
     "SELECT count(*) FROM flights"),
    ("flight_2", "List the airlines flying out of AAH.",
     "SELECT airline FROM WHERE !!"),  # deliberately unparseable row
]

# The sixteen pinned generic-prompt pairs, by index into TRAIN_EXAMPLES.
GP_PINNED_INDICES = list(range(14)) + [17, 18]

# The (db_id, nl) keys the sampler is expected to pick on this corpus:
# the pinned pairs minus the >=-only query (folded into >), plus the three
# coverage extensions.
EXPECTED_SAMPLED_INDICES = list(range(13)) + [14, 15, 16, 17, 18]

TRAIN_DDL = {
    "college_2": """
        CREATE TABLE classroom (building TEXT, room_number TEXT, capacity INTEGER,
            PRIMARY KEY (building, room_number));
        CREATE TABLE department (dept_name TEXT PRIMARY KEY, building TEXT, budget REAL);
        CREATE TABLE course (course_id TEXT PRIMARY KEY, title TEXT, dept_name TEXT,
            credits INTEGER, FOREIGN KEY (dept_name) REFERENCES department (dept_name));
        CREATE TABLE instructor (ID TEXT PRIMARY KEY, name TEXT, dept_name TEXT, salary REAL,
            FOREIGN KEY (dept_name) REFERENCES department (dept_name));
        CREATE TABLE section (course_id TEXT, sec_id TEXT, semester TEXT, year INTEGER,
            building TEXT, room_number TEXT, time_slot_id TEXT,
            PRIMARY KEY (course_id, sec_id, semester, year),
            FOREIGN KEY (course_id) REFERENCES course (course_id),
            FOREIGN KEY (building, room_number) REFERENCES classroom (building, room_number));
        CREATE TABLE teaches (ID TEXT, course_id TEXT, sec_id TEXT, semester TEXT, year INTEGER,
            PRIMARY KEY (ID, course_id, sec_id, semester, year),
            FOREIGN KEY (course_id, sec_id, semester, year)
                REFERENCES section (course_id, sec_id, semester, year),
            FOREIGN KEY (ID) REFERENCES instructor (ID));
        CREATE TABLE student (ID TEXT PRIMARY KEY, name TEXT, dept_name TEXT, tot_cred INTEGER,
            FOREIGN KEY (dept_name) REFERENCES department (dept_name));
        CREATE TABLE takes (ID TEXT, course_id TEXT, sec_id TEXT, semester TEXT, year INTEGER,
            grade TEXT, PRIMARY KEY (ID, course_id, sec_id, semester, year),
            FOREIGN KEY (course_id, sec_id, semester, year)
                REFERENCES section (course_id, sec_id, semester, year),
            FOREIGN KEY (ID) REFERENCES student (ID));
        CREATE TABLE advisor (s_ID TEXT PRIMARY KEY, i_ID TEXT,
            FOREIGN KEY (i_ID) REFERENCES instructor (ID),
            FOREIGN KEY (s_ID) REFERENCES student (ID));
        CREATE TABLE time_slot (time_slot_id TEXT, day TEXT, start_hr INTEGER,
            start_min INTEGER, end_hr INTEGER, end_min INTEGER,
            PRIMARY KEY (time_slot_id, day, start_hr, start_min));
        CREATE TABLE prereq (course_id TEXT, prereq_id TEXT,
            PRIMARY KEY (course_id, prereq_id),
            FOREIGN KEY (course_id) REFERENCES course (course_id),
            FOREIGN KEY (prereq_id) REFERENCES course (course_id));

        INSERT INTO classroom VALUES ('Packard', '101', 500), ('Painter', '514', 10),
            ('Taylor', '3128', 70), ('Watson', '100', 30);
        INSERT INTO department VALUES ('Marketing', 'Packard', 120000.0),
            ('Finance', 'Painter', 90000.0), ('Statistics', 'Taylor', 105000.0),
            ('Psychology', 'Watson', 50000.0);
        INSERT INTO course VALUES ('BIO-101', 'Intro to Biology', 'Statistics', 4),
            ('CS-101', 'Intro to Computing', 'Psychology', 4),
            ('CS-319', 'Image Processing', 'Statistics', 3),
            ('FIN-201', 'Investment Banking', 'Finance', 3),
            ('MKT-101', 'Markets', 'Marketing', 4);
        INSERT INTO instructor VALUES ('10101', 'Soisalon-Soininen', 'Statistics', 60000.0),
            ('12121', 'Wu', 'Finance', 90000.0), ('15151', 'Mozart', 'Marketing', 40000.0),
            ('22222', 'Einstein', 'Statistics', 95000.0), ('32343', 'El Said', 'Psychology', 32000.0);
        INSERT INTO section VALUES ('BIO-101', '1', 'Fall', 2009, 'Packard', '101', 'A'),
            ('CS-101', '1', 'Spring', 2010, 'Painter', '514', 'B'),
            ('CS-319', '1', 'Spring', 2010, 'Taylor', '3128', 'C'),
            ('FIN-201', '1', 'Fall', 2009, 'Packard', '101', 'A');
        INSERT INTO teaches VALUES ('10101', 'BIO-101', '1', 'Fall', 2009),
            ('12121', 'FIN-201', '1', 'Fall', 2009), ('22222', 'CS-319', '1', 'Spring', 2010);
        INSERT INTO student VALUES ('00128', 'Zhang', 'Statistics', 102),
            ('12345', 'Shankar', 'Psychology', 32), ('19991', 'Brandt', 'Finance', 80);
        INSERT INTO takes VALUES ('00128', 'CS-101', '1', 'Spring', 2010, 'A'),
            ('12345', 'CS-319', '1', 'Spring', 2010, 'B');
        INSERT INTO advisor VALUES ('00128', '10101'), ('12345', '22222');
        INSERT INTO time_slot VALUES ('A', 'M', 8, 0, 8, 50), ('B', 'T', 9, 0, 9, 50);
        INSERT INTO prereq VALUES ('CS-319', 'BIO-101'), ('CS-319', 'CS-101'),
            ('FIN-201', 'CS-101');
    """,
    "hr_1": """
        CREATE TABLE regions (REGION_ID INTEGER PRIMARY KEY, REGION_NAME TEXT);
        CREATE TABLE countries (COUNTRY_ID TEXT PRIMARY KEY, COUNTRY_NAME TEXT,
            REGION_ID INTEGER, FOREIGN KEY (REGION_ID) REFERENCES regions (REGION_ID));
        CREATE TABLE departments (DEPARTMENT_ID INTEGER PRIMARY KEY, DEPARTMENT_NAME TEXT,
            MANAGER_ID INTEGER, LOCATION_ID INTEGER);
        CREATE TABLE jobs (JOB_ID TEXT PRIMARY KEY, JOB_TITLE TEXT,
            MIN_SALARY INTEGER, MAX_SALARY INTEGER);
        CREATE TABLE employees (EMPLOYEE_ID INTEGER PRIMARY KEY, FIRST_NAME TEXT,
            LAST_NAME TEXT, EMAIL TEXT, PHONE_NUMBER TEXT, HIRE_DATE TEXT, JOB_ID TEXT,
            SALARY INTEGER, COMMISSION_PCT REAL, MANAGER_ID INTEGER, DEPARTMENT_ID INTEGER,
            FOREIGN KEY (DEPARTMENT_ID) REFERENCES departments (DEPARTMENT_ID),
            FOREIGN KEY (JOB_ID) REFERENCES jobs (JOB_ID));
        CREATE TABLE job_history (EMPLOYEE_ID INTEGER, START_DATE TEXT, END_DATE TEXT,
            JOB_ID TEXT, DEPARTMENT_ID INTEGER, PRIMARY KEY (EMPLOYEE_ID, START_DATE),
            FOREIGN KEY (EMPLOYEE_ID) REFERENCES employees (EMPLOYEE_ID),
            FOREIGN KEY (DEPARTMENT_ID) REFERENCES departments (DEPARTMENT_ID),
            FOREIGN KEY (JOB_ID) REFERENCES jobs (JOB_ID));
        CREATE TABLE locations (LOCATION_ID INTEGER PRIMARY KEY, STREET_ADDRESS TEXT,
            POSTAL_CODE TEXT, CITY TEXT, STATE_PROVINCE TEXT, COUNTRY_ID TEXT,
            FOREIGN KEY (COUNTRY_ID) REFERENCES countries (COUNTRY_ID));

        INSERT INTO regions VALUES (1, 'Europe'), (2, 'Americas');
        INSERT INTO countries VALUES ('DE', 'Germany', 1), ('US', 'United States', 2);
        INSERT INTO departments VALUES (10, 'Administration', 200, 1700),
            (40, 'Human Resources', 203, 2400), (90, 'Executive', 100, 1700);
        INSERT INTO jobs VALUES ('AD_PRES', 'President', 20000, 40000),
            ('IT_PROG', 'Programmer', 4000, 10000), ('ST_CLERK', 'Stock Clerk', 2000, 5000),
            ('HR_REP', 'Human Resources Representative', 12000, 16000);
        INSERT INTO employees VALUES
            (100, 'Steven', 'King', 'SKING', '515.123.4567', '1987-06-17', 'AD_PRES', 24000, NULL, NULL, 90),
            (103, 'Alexander', 'Hunold', 'AHUNOLD', '590.423.4567', '1990-01-03', 'IT_PROG', 9000, NULL, 100, 10),
            (104, 'Bruce', 'Ernst', 'BERNST', '590.423.4568', '1991-05-21', 'IT_PROG', 6000, NULL, 103, 10),
            (203, 'Susan', 'Mavris', 'SMAVRIS', '515.123.7777', '1994-06-07', 'HR_REP', 6500, NULL, 100, 40);
        INSERT INTO job_history VALUES
            (100, '1993-01-13', '1998-07-24', 'IT_PROG', 10),
            (103, '1989-09-21', '1993-10-27', 'ST_CLERK', 10),
            (103, '1993-10-28', '1997-03-15', 'IT_PROG', 10);
        INSERT INTO locations VALUES (1700, '2004 Charade Rd', '98199', 'Seattle', 'Washington', 'US'),
            (2400, '8204 Arthur St', 'NULL', 'London', NULL, 'DE');
    """,
    "inn_1": """
        CREATE TABLE Rooms (RoomId TEXT PRIMARY KEY, roomName TEXT, beds INTEGER,
            bedType TEXT, maxOccupancy INTEGER, basePrice INTEGER, decor TEXT);
        CREATE TABLE Reservations (Code INTEGER PRIMARY KEY, Room TEXT, CheckIn TEXT,
            CheckOut TEXT, Rate REAL, LastName TEXT, FirstName TEXT, Adults INTEGER,
            Kids INTEGER, FOREIGN KEY (Room) REFERENCES Rooms (RoomId));

        INSERT INTO Rooms VALUES ('RND', 'Recluse and defiance', 1, 'King', 2, 150, 'modern'),
            ('IBS', 'Interim but salutary', 2, 'Queen', 4, 120, 'traditional');
        INSERT INTO Reservations VALUES
            (10105, 'RND', '2010-10-23', '2010-10-25', 150.0, 'SELBIG', 'CONRAD', 1, 1),
            (10183, 'IBS', '2010-09-12', '2010-09-18', 120.0, 'GABLER', 'DOLLIE', 2, 2),
            (10449, 'RND', '2010-02-10', '2010-02-14', 150.0, 'KLESS', 'NELSON', 2, 0);
    """,
    "product_catalog": """
        CREATE TABLE Attribute_Definitions (attribute_id INTEGER PRIMARY KEY,
            attribute_name TEXT, attribute_data_type TEXT);
        CREATE TABLE Catalogs (catalog_id INTEGER PRIMARY KEY, catalog_name TEXT,
            catalog_publisher TEXT, date_of_publication TEXT, date_of_latest_revision TEXT);
        CREATE TABLE Catalog_Structure (catalog_level_number INTEGER PRIMARY KEY,
            catalog_id INTEGER, catalog_level_name TEXT,
            FOREIGN KEY (catalog_id) REFERENCES Catalogs (catalog_id));
        CREATE TABLE Catalog_Contents (catalog_entry_id INTEGER PRIMARY KEY,
            catalog_level_number INTEGER, parent_entry_id INTEGER, previous_entry_id INTEGER,
            next_entry_id INTEGER, catalog_entry_name TEXT, product_stock_number TEXT,
            price_in_dollars REAL, price_in_euros REAL, price_in_pounds REAL,
            capacity TEXT, length TEXT, height TEXT, width TEXT,
            FOREIGN KEY (catalog_level_number) REFERENCES Catalog_Structure (catalog_level_number));
        CREATE TABLE Catalog_Contents_Additional_Attributes (catalog_entry_id INTEGER,
            catalog_level_number INTEGER, attribute_id INTEGER, attribute_value TEXT,
            FOREIGN KEY (catalog_entry_id) REFERENCES Catalog_Contents (catalog_entry_id),
            FOREIGN KEY (catalog_level_number) REFERENCES Catalog_Structure (catalog_level_number));

        INSERT INTO Attribute_Definitions VALUES (1, 'Green', 'Bool'), (2, 'Sweet', 'Bool');
        INSERT INTO Catalogs VALUES (1, 'Chocolate', 'Koepp-Rutherford', '2013-03-15', '2017-09-26');
        INSERT INTO Catalog_Structure VALUES (1, 1, 'Category'), (8, 1, 'Sub-Category');
        INSERT INTO Catalog_Contents VALUES
            (1, 1, 0, 0, 0, 'Cola', '89 cp', 200.78, 159.84, 172.17, '1', '3', '9', '5'),
            (2, 8, 1, 1, 2, 'Root beer', '37 hq', 687.59, 590.11, 471.78, '1', '2', '9', '7'),
            (3, 8, 1, 2, 3, 'Cream Soda', '52 ee', 360.5, 300.35, 289.34, '3', '6', '2', '4');
        INSERT INTO Catalog_Contents_Additional_Attributes VALUES (1, 8, 1, '1'), (2, 8, 2, '0');
    """,
    "flight_2": """
        CREATE TABLE flights (flight_id INTEGER PRIMARY KEY, origin TEXT,
            destination TEXT, airline TEXT);
        INSERT INTO flights VALUES (1, 'AAH', 'JFK', 'United'), (2, 'JFK', 'AAH', 'JetBlue');
    """,
}

# Decomposition records for every selectable train query, keyed by NL below
# when written to disk. Tuples: (nl, sub_questions, natsql_steps).
SPIDER_SS_RECORDS = [
    ("Find the buildings which have rooms with capacity more than 50.",
     ["Find the buildings", "which have rooms with capacity more than 50."],
     ["select distinct classroom.building", "select where classroom.capacity > 50"]),
    ("Find the name and building of the department with the highest budget.",
     ["Find the name and building of the department", "with the highest budget."],
     ["select department.dept_name, department.building",
      "select order by department.budge desc limit 1"]),
    ("Find the title of courses that have two prerequisites?",
     ["Find the title of courses", "that have two prerequisites?"],
     ["select course.title", "select where count(prereq.*)=2 group by prereq.course_id"]),
    ("How many courses that do not have prerequisite?",
     ["How many courses", "that do not have prerequisite?"],
     ["select count(Courses.*)", "select where @.@ not in prereq.course_id"]),
    ("Find the total budgets of the Marketing or Finance department.",
     ["Find the total budgets of the Marketing or Finance department."],
     ['select sum(department.budget) where department.dept_name = "Marketing" or department.dept_name="Finance"']),
    ("Find the department name of the instructor whose name contains 'Soisalon'.",
     ["Find the department name of the instructor", "whose name contains 'Soisalon'."],
     ["select instructor.dept_name", 'select where instructor.name like "%Soisalon%"']),
    ("Find the title of course that is provided by both Statistics and Psychology departments.",
     ["Find the title of course", "that is provided by both Statistics and Psychology departments."],
     ["select course.title", 'select where course.dept_name="Statistics" and course.dept_name="Psychology"']),
    ("Find the title of course that is provided by Statistics but not Psychology departments.",
     ["Find the title of course", "that is provided by Statistics", "but not Psychology departments."],
     ["select course.title", 'select where course.dept_name="Statistics"',
      'select where course.dept_name!="Psychology"']),
    ("Find courses that ran in Fall 2009 or in Spring 2010.",
     ["Find courses", "that ran in Fall 2009 or", "in Spring 2010."],
     ["select section.course_id", 'select where section.semester="Fall" and section.year=2009',
      'select where section.semester="Spring" and section.year=2010']),
    ("Find the names and average salaries of all departments whose average salary is greater than 42000.",
     ["Find the names and average salaries of all departments",
      "whose average salary is greater than 42000."],
     ["select instructor.dept_name, avg(isntructor.slary) group by instructor.dept_name",
      "select where avg(instructor.salary) > 42000"]),
    ("display job Title, the difference between minimum and maximum salaries for those jobs which max salary within the range 12000 to 18000.",
     ["display job Title, the difference between minimum and maximum salaries for those jobs",
      "which max salary within the range 12000 to 18000."],
     ["select jobs.JOB_TITLE, jobs.MAX_SALARY - jobs.MIN_SALARY",
      "select where jobs.MAX_SALARY between 12000 and 18000"]),
    ("display the employee ID for each employee and the date on which he ended his previous job.",
     ["display the employee ID for each employee and the date",
      "on which he ended his previous job."],
     ["select job_history.EMPLOYEE_ID, max(job_history.END_DATE) group by job_history.EMPLOYEE_ID",
      "select extra max (job_history.END_DATE)"]),
    ("return the smallest salary for every departments.",
     ["return the smallest salary for every departments."],
     ["select min(employees.SALARY), employees.DEPARTMENT_ID group by employees.DEPARTMENT_ID"]),
    ("display the department id and the total salary for those departments which contains at least two employees.",
     ["display the department id and the total salary for those departments",
      "which contains at least two employees."],
     ["select employees.DEPARTEMENT_ID, sum(employees.SALARY)",
      "select where count (employees.*)>=2 group by employees.DEPARTMENT_ID"]),
    ("display the first name of employees who do not work in department 40.",
     ["display the first name of employees", "who do not work in department 40."],
     ["select employees.FIRST_NAME", "select where employees.DEPARTMENT_ID != 40"]),
    ("display the employee id and the annual salary for each employee.",
     ["display the employee id and the annual salary for each employee."],
     ["select employees.EMPLOYEE_ID, employees.SALARY * 12"]),
    ("display the job id and half the salary gap for each job.",
     ["display the job id and half the salary gap for each job."],
     ["select jobs.JOB_ID, (jobs.MAX_SALARY - jobs.MIN_SALARY) / 2"]),
    ("List how many times the number of people in the room reached the maximum occupancy of the room. The number of people include adults and kids.",
     ["List how many times the number of people in the room",
      "the maximum occupancy of the room.", "The number of people include adults and kids."],
     ["select count(Resrevations.*)", "select where Rooms.maxOccupancy=Reservations.Adults",
      "select extra Reservations.Adults"]),
    ("Find the names of the products with length smaller than 3 or height greater than 5.",
     ["Find the names of the products", "with length smaller than 3 or",
      "height greater than 5."],
     ["select Catalog_Contents.catalog_entry_name", "select where Catalog_Contents.length < 3",
      "select where Catalog_Contents.width > 5"]),
]


# ---------------------------------------------------------------------------
# Test corpus: eight KaggleDBQA-style databases
# ---------------------------------------------------------------------------

NUCLEAR_DB = "GeoNuclearData"
NUCLEAR_TABLE = "nuclear_power_plants"
NUCLEAR_COLUMNS = [
    ("Id", "INTEGER", None),
    ("Name", "TEXT", None),
    ("Latitude", "TEXT", "latitude in decimal format"),
    ("Longitude", "TEXT", "longitude in decimal format"),
    ("Country", "TEXT", None),
    ("Status", "TEXT", None),
    ("ReactorType", "TEXT", None),
    ("ReactorModel", "TEXT", None),
    ("ConstructionStartAt", "DATE", "date when nuclear power plant construction was started"),
    ("OperationalFrom", "DATE",
     "date when nuclear power plant became operational (also known as commercial operation date)"),
    ("OperationalTo", "DATE",
     "date when nuclear power plant was shutdown (also known as permanent shutdown date)"),
    ("Capacity", "INTEGER", "nuclear power plant capacity (design net capacity in MWe)"),
    ("LastUpdatedAt", "TEXT", "date and time when information was last updated"),
    ("Source", "TEXT", "source of the information"),
]

TEST_QUESTION = "Which country has the most capacities of nuclear power plants?"
TEST_QUESTION_GOLD = ("SELECT Country FROM nuclear_power_plants "
                      "GROUP BY Country ORDER BY sum(Capacity) DESC LIMIT 1")

_NUCLEAR_ROWS = [
    (572, "Ågesta", "59.206000", "18.082000", "Sweden", "Shutdown", "PHWR",
     "PHWR KWU", "1957-12-01", "1964-05-01", "1974-06-02", 10,
     "2015-05-24T04:50:59+03:00", "WNA/wikipedia/IAEA"),
    (560, "Turkey Point-4", "25.434000", "-80.331000", "United States",
     "Operational", "PWR", "WH 2LP (DRYAMB)", "1968-05-18", "1973-09-07", None,
     699, "2015-05-24T04:51:11+03:00", "wikipedia"),
    (258, "Oskarshamn-2", "57.415000", "16.671000", "Sweden", "Shutdown",
     "BWR", "ABB-II", "1969-09-01", "1975-01-01", "2016-12-22", 638,
     "2017-02-10T23:58:48+02:00", "WNA"),
    (433, "Ningde-4", "27.046000", "120.288000", "China", "Operational",
     "PWR", "CPR-1000", "2010-09-29", "2016-07-21", None, 1018,
     "2018-03-10T13:41:49+02:00", "WNA/IAEA/GEO"),
    (101, "Emsland", "52.474000", "7.318000", "Germany", "Operational",
     "PWR", "Konvoi", "1982-08-10", "1988-06-20", None, 1335,
     "2015-05-24T04:50:59+03:00", "WNA"),
    (102, "Grohnde", "52.035000", "9.413000", "Germany", "Operational",
     "PWR", "Konvoi", "1976-06-01", "1985-02-01", None, 1360,
     "2015-05-24T04:51:11+03:00", "WNA/IAEA"),
    (103, "Bruce-5", "44.325000", "-81.599000", "Canada", "Operational",
     "PHWR", "CANDU 791", "1978-06-01", "1985-03-01", None, 817,
     "2017-02-10T23:58:48+02:00", "IAEA"),
    (104, "Trino Vercellese", "45.182000", "8.278000", "Italy", "Shutdown",
     "PWR", "WH 4LP", "1961-07-01", "1965-01-01", "1990-07-01", 260,
     "2015-05-24T04:50:59+03:00", "wikipedia"),
]

# (db_id, table ddl+rows, schema columns with descriptions, question count)
TEST_DATABASES = [
    {
        "db_id": NUCLEAR_DB,
        "tables": {NUCLEAR_TABLE: NUCLEAR_COLUMNS},
        "count": 22,
    },
    {
        "db_id": "GreaterManchesterCrime",
        "tables": {
            "GreaterManchesterCrime": [
                ("CrimeID", "TEXT", "unique id of the crime"),
                ("CrimeTS", "TEXT", "timestamp when the crime happened"),
                ("Location", "TEXT", None),
                ("LSOA", "TEXT", "lower layer super output area"),
                ("Type", "TEXT", "category of the crime"),
                ("Outcome", "TEXT", "result of the investigation"),
            ],
        },
        "count": 18,
    },
    {
        "db_id": "Pesticide",
        "tables": {
            "sampledata15": [
                ("sample_pk", "INTEGER", "unique id of the sample"),
                ("state", "TEXT", None),
                ("year", "INTEGER", None),
                ("month", "INTEGER", None),
                ("day", "INTEGER", None),
                ("commod", "TEXT", "commodity sampled"),
                ("quantity", "INTEGER", "number of units in the sample"),
            ],
            "resultsdata15": [
                ("sample_pk", "INTEGER", None),
                ("commod", "TEXT", None),
                ("testclass", "TEXT", None),
                ("pestcode", "TEXT", None),
                ("concen", "REAL", "concentration found"),
                ("conunit", "TEXT", "concentration unit"),
                ("confmethod", "TEXT", "code for confirmation method"),
            ],
        },
        "count": 34,
    },
    {
        "db_id": "StudentMathScore",
        "tables": {
            "NDECoreExcel_Math_Grade8": [
                ("year", "INTEGER", None),
                ("state", "TEXT", None),
                ("all_students", "TEXT", "student group covered by the row"),
                ("average_scale_score", "REAL", "average math scale score"),
            ],
        },
        "count": 19,
    },
    {
        "db_id": "TheHistoryofBaseball",
        "tables": {
            "player": [
                ("player_id", "TEXT", None),
                ("birth_year", "INTEGER", None),
                ("name_first", "TEXT", None),
                ("name_last", "TEXT", None),
                ("weight", "INTEGER", None),
                ("height", "INTEGER", None),
            ],
            "hall_of_fame": [
                ("player_id", "TEXT", None),
                ("yearid", "INTEGER", "year of the ballot"),
                ("votedby", "TEXT", None),
                ("inducted", "TEXT", "Y when inducted"),
            ],
        },
        "count": 27,
    },
    {
        "db_id": "USWildFires",
        "tables": {
            "Fires": [
                ("OBJECTID", "INTEGER", None),
                ("FIRE_YEAR", "INTEGER", None),
                ("STAT_CAUSE_DESCR", "TEXT", "description of the cause"),
                ("FIRE_SIZE", "REAL", "burned area in acres"),
                ("STATE", "TEXT", "two-letter state code"),
                ("FIRE_NAME", "TEXT", None),
            ],
        },
        "count": 25,
    },
    {
        "db_id": "WhatCDHipHop",
        "tables": {
            "torrents": [
                ("id", "INTEGER", None),
                ("groupName", "TEXT", "name of the release"),
                ("totalSnatched", "INTEGER", "number of downloads"),
                ("artist", "TEXT", None),
                ("groupYear", "INTEGER", None),
                ("releaseType", "TEXT", None),
            ],
        },
        "count": 28,
    },
    {
        "db_id": "WorldSoccerDataBase",
        "tables": {
            "football_data": [
                ("Country", "TEXT", None),
                ("League", "TEXT", None),
                ("Season", "TEXT", "season label, e.g. 2010-2011"),
                ("Datetime", "TEXT", None),
                ("home_team", "TEXT", None),
                ("away_team", "TEXT", None),
                ("fthg", "INTEGER", "full time home goals"),
                ("ftag", "INTEGER", "full time away goals"),
            ],
        },
        "count": 12,
    },
]

TEST_DDL = {
    NUCLEAR_DB: (
        "CREATE TABLE nuclear_power_plants (Id INTEGER, Name TEXT, Latitude TEXT, "
        "Longitude TEXT, Country TEXT, Status TEXT, ReactorType TEXT, ReactorModel TEXT, "
        "ConstructionStartAt DATE, OperationalFrom DATE, OperationalTo DATE, "
        "Capacity INTEGER, LastUpdatedAt TEXT, Source TEXT);\n"
        + "".join(
            "INSERT INTO nuclear_power_plants VALUES ({});\n".format(
                ", ".join("NULL" if v is None else repr(v) for v in row))
            for row in _NUCLEAR_ROWS
        )
    ),
    "GreaterManchesterCrime": """
        CREATE TABLE GreaterManchesterCrime (CrimeID TEXT, CrimeTS TEXT, Location TEXT,
            LSOA TEXT, Type TEXT, Outcome TEXT);
        INSERT INTO GreaterManchesterCrime VALUES
            ('6B:E2:54:C6:58:D2', '2016-01-12 09:00', 'On or near Parking Area', 'E01005181',
             'Burglary', 'Investigation complete; no suspect identified'),
            ('A1:B2:C3:D4:E5:F6', '2016-02-20 14:30', 'On or near Market Street', 'E01005182',
             'Theft', 'Under investigation'),
            ('11:22:33:44:55:66', '2016-02-21 23:10', 'On or near Oxford Road', 'E01005183',
             'Burglary', 'Suspect charged'),
            ('77:88:99:AA:BB:CC', '2016-03-02 01:45', 'On or near Piccadilly', 'E01005184',
             'Violence', 'Under investigation');
    """,
    "Pesticide": """
        CREATE TABLE sampledata15 (sample_pk INTEGER, state TEXT, year INTEGER,
            month INTEGER, day INTEGER, commod TEXT, quantity INTEGER);
        CREATE TABLE resultsdata15 (sample_pk INTEGER, commod TEXT, testclass TEXT,
            pestcode TEXT, concen REAL, conunit TEXT, confmethod TEXT);
        INSERT INTO sampledata15 VALUES
            (9628, 'CA', 2015, 1, 12, 'AP', 12),
            (9629, 'CA', 2015, 2, 3, 'AP', 7),
            (9630, 'WA', 2015, 2, 17, 'GR', 30),
            (9631, 'NY', 2015, 3, 28, 'AP', 5);
        INSERT INTO resultsdata15 VALUES
            (9628, 'AP', 'FUNG', '383', 0.02, 'ppm', 'GC-MS'),
            (9629, 'AP', 'HERB', '112', 0.005, 'ppm', 'LC-MS'),
            (9630, 'GR', 'FUNG', '383', 0.013, 'ppm', 'GC-MS'),
            (9631, 'AP', 'INSE', '061', 0.11, 'ppm', 'GC-MS');
    """,
    "StudentMathScore": """
        CREATE TABLE NDECoreExcel_Math_Grade8 (year INTEGER, state TEXT,
            all_students TEXT, average_scale_score REAL);
        INSERT INTO NDECoreExcel_Math_Grade8 VALUES
            (2017, 'Massachusetts', 'All students', 297.0),
            (2017, 'Minnesota', 'All students', 294.0),
            (2017, 'Alabama', 'All students', 268.0),
            (2017, 'California', 'All students', 277.0);
    """,
    "TheHistoryofBaseball": """
        CREATE TABLE player (player_id TEXT, birth_year INTEGER, name_first TEXT,
            name_last TEXT, weight INTEGER, height INTEGER);
        CREATE TABLE hall_of_fame (player_id TEXT, yearid INTEGER, votedby TEXT,
            inducted TEXT);
        INSERT INTO player VALUES
            ('aaronha01', 1934, 'Hank', 'Aaron', 180, 72),
            ('ruthba01', 1895, 'Babe', 'Ruth', 215, 74),
            ('bondsba01', 1964, 'Barry', 'Bonds', 185, 73),
            ('gwynnto01', 1960, 'Tony', 'Gwynn', 185, 71);
        INSERT INTO hall_of_fame VALUES
            ('aaronha01', 1982, 'BBWAA', 'Y'),
            ('ruthba01', 1936, 'BBWAA', 'Y'),
            ('bondsba01', 2013, 'BBWAA', 'N'),
            ('gwynnto01', 2007, 'BBWAA', 'Y');
    """,
    "USWildFires": """
        CREATE TABLE Fires (OBJECTID INTEGER, FIRE_YEAR INTEGER, STAT_CAUSE_DESCR TEXT,
            FIRE_SIZE REAL, STATE TEXT, FIRE_NAME TEXT);
        INSERT INTO Fires VALUES
            (1, 2014, 'Campfire', 12.5, 'TX', 'POWER'),
            (2, 2014, 'Lightning', 310.0, 'CA', 'FREEDOM'),
            (3, 2015, 'Campfire', 2.1, 'TX', 'MAVERICK'),
            (4, 2014, 'Debris Burning', 55.0, 'GA', 'PINE'),
            (5, 2015, 'Arson', 4.2, 'CA', 'RIDGE');
    """,
    "WhatCDHipHop": """
        CREATE TABLE torrents (id INTEGER, groupName TEXT, totalSnatched INTEGER,
            artist TEXT, groupYear INTEGER, releaseType TEXT);
        INSERT INTO torrents VALUES
            (1, 'superappin', 239, 'grandmaster flash', 1979, 'single'),
            (2, 'the message', 1109, 'grandmaster flash', 1982, 'album'),
            (3, 'rappers delight', 981, 'sugarhill gang', 1979, 'single'),
            (4, 'paid in full', 1720, 'eric b. & rakim', 1987, 'album');
    """,
    "WorldSoccerDataBase": """
        CREATE TABLE football_data (Country TEXT, League TEXT, Season TEXT, Datetime TEXT,
            home_team TEXT, away_team TEXT, fthg INTEGER, ftag INTEGER);
        INSERT INTO football_data VALUES
            ('Spain', 'LaLiga', '2010-2011', '2010-09-11 18:00', 'Barcelona', 'Hercules', 0, 2),
            ('Spain', 'LaLiga', '2010-2011', '2010-09-12 20:00', 'Real Madrid', 'Osasuna', 1, 0),
            ('England', 'EPL', '2010-2011', '2010-08-14 15:00', 'Aston Villa', 'West Ham', 3, 0),
            ('Spain', 'LaLiga', '2011-2012', '2011-08-27 18:00', 'Valencia', 'Racing', 4, 3);
    """,
}


def _generated_questions(db: dict) -> list[tuple[str, str]]:
    """Deterministic per-database question lists with the configured counts."""
    db_id = db["db_id"]
    questions: list[tuple[str, str]] = []
    if db_id == NUCLEAR_DB:
        t = NUCLEAR_TABLE
        questions = [
            (TEST_QUESTION, TEST_QUESTION_GOLD),
            ("Which country lead the total capacity of the power plants it held?",
             "SELECT Country FROM nuclear_power_plants GROUP BY Country ORDER BY sum(Capacity) DESC LIMIT 1"),
            ("Which country has the least capacities of nuclear power plants?",
             "SELECT Country FROM nuclear_power_plants GROUP BY Country ORDER BY sum(Capacity) LIMIT 1"),
            ("How many nuclear power plants are there?",
             f"SELECT count(*) FROM {t}"),
            ("How many plants are operational?",
             f"SELECT count(*) FROM {t} WHERE Status = 'Operational'"),
            ("List the names of plants in Germany.",
             f"SELECT Name FROM {t} WHERE Country = 'Germany'"),
            ("What is the total capacity of plants in Sweden?",
             f"SELECT sum(Capacity) FROM {t} WHERE Country = 'Sweden'"),
            ("What is the name of the plant with the largest capacity?",
             f"SELECT Name FROM {t} ORDER BY Capacity DESC LIMIT 1"),
            ("List the distinct reactor types.",
             f"SELECT DISTINCT ReactorType FROM {t}"),
            ("How many distinct countries have plants?",
             f"SELECT count(DISTINCT Country) FROM {t}"),
            ("What is the average capacity of operational plants?",
             f"SELECT avg(Capacity) FROM {t} WHERE Status = 'Operational'"),
            ("Which plants were shut down, ordered by name?",
             f"SELECT Name FROM {t} WHERE Status = 'Shutdown' ORDER BY Name"),
            ("What is the capacity of the plant named Emsland?",
             f"SELECT Capacity FROM {t} WHERE Name = 'Emsland'"),
            ("Which plants started construction before 1970?",
             f"SELECT Name FROM {t} WHERE ConstructionStartAt < '1970-01-01'"),
            ("How many plants use the PWR reactor type?",
             f"SELECT count(*) FROM {t} WHERE ReactorType = 'PWR'"),
            ("List countries with more than one plant.",
             f"SELECT Country FROM {t} GROUP BY Country HAVING count(*) > 1"),
            ("What are the names and capacities of plants with capacity above 1000?",
             f"SELECT Name, Capacity FROM {t} WHERE Capacity > 1000"),
            ("Which plant was updated most recently?",
             f"SELECT Name FROM {t} ORDER BY LastUpdatedAt DESC LIMIT 1"),
            ("What is the smallest capacity of any plant?",
             f"SELECT min(Capacity) FROM {t}"),
            ("List the names of plants sourced from wikipedia.",
             f"SELECT Name FROM {t} WHERE Source = 'wikipedia'"),
            ("How many plants are in Canada or Italy?",
             f"SELECT count(*) FROM {t} WHERE Country = 'Canada' OR Country = 'Italy'"),
            ("What are the names of plants that became operational after 1980?",
             f"SELECT Name FROM {t} WHERE OperationalFrom > '1980-01-01'"),
        ]
    elif db_id == "GreaterManchesterCrime":
        questions = [
            ("What's the most common type of crime?",
             "SELECT Type FROM GreaterManchesterCrime GROUP BY Type ORDER BY count(*) DESC LIMIT 1"),
            ("What is the result in case 6B:E2:54:C6:58:D2?",
             "SELECT Outcome FROM GreaterManchesterCrime WHERE CrimeID = '6B:E2:54:C6:58:D2'"),
            ("How many crimes were recorded?",
             "SELECT count(*) FROM GreaterManchesterCrime"),
            ("How many burglaries were recorded?",
             "SELECT count(*) FROM GreaterManchesterCrime WHERE Type = 'Burglary'"),
        ]
    elif db_id == "Pesticide":
        questions = [
            ("How many number of units are there in sample 9628?",
             "SELECT quantity FROM sampledata15 WHERE sample_pk = 9628"),
            ("What's the code for confirmation for the latest sample?",
             "SELECT confmethod FROM resultsdata15 AS T2 JOIN sampledata15 AS T1 "
             "ON T1.sample_pk = T2.sample_pk ORDER BY year DESC, month DESC, day DESC LIMIT 1"),
            ("How many samples were taken in California?",
             "SELECT count(*) FROM sampledata15 WHERE state = 'CA'"),
            ("What is the highest concentration found?",
             "SELECT max(concen) FROM resultsdata15"),
        ]
    elif db_id == "StudentMathScore":
        questions = [
            ("State with highest average math score",
             "SELECT state FROM NDECoreExcel_Math_Grade8 ORDER BY average_scale_score DESC LIMIT 1"),
            ("What is the average scale score of Alabama?",
             "SELECT average_scale_score FROM NDECoreExcel_Math_Grade8 WHERE state = 'Alabama'"),
            ("How many states are listed?",
             "SELECT count(DISTINCT state) FROM NDECoreExcel_Math_Grade8"),
        ]
    elif db_id == "TheHistoryofBaseball":
        questions = [
            ("How many players were inducted into the hall of fame?",
             "SELECT count(*) FROM hall_of_fame WHERE inducted = 'Y'"),
            ("What is the first and last name of the heaviest player?",
             "SELECT name_first, name_last FROM player ORDER BY weight DESC LIMIT 1"),
            ("How many players are taller than 72 inches?",
             "SELECT count(*) FROM player WHERE height > 72"),
        ]
    elif db_id == "USWildFires":
        questions = [
            ("Show all fires caused by campfires in Texas.",
             "SELECT * FROM Fires WHERE STAT_CAUSE_DESCR = 'Campfire' AND STATE = 'TX'"),
            ("In 2014, how many wildfires were the result of mismanaged campfires?",
             "SELECT count(*) FROM Fires WHERE STAT_CAUSE_DESCR LIKE '%Campfire%' AND FIRE_YEAR = 2014"),
            ("What is the largest fire size recorded?",
             "SELECT max(FIRE_SIZE) FROM Fires"),
            ("How many fires happened in California?",
             "SELECT count(*) FROM Fires WHERE STATE = 'CA'"),
        ]
    elif db_id == "WhatCDHipHop":
        questions = [
            ("What are the downloaded numbers and their release types?",
             "SELECT sum(totalSnatched), releaseType FROM torrents GROUP BY releaseType"),
            ("Which artist released the most albums?",
             "SELECT artist FROM torrents WHERE releaseType = 'album' "
             "GROUP BY artist ORDER BY count(*) DESC LIMIT 1"),
            ("How many releases are from before 1980?",
             "SELECT count(*) FROM torrents WHERE groupYear < 1980"),
        ]
    elif db_id == "WorldSoccerDataBase":
        questions = [
            ("How many matches in Spain in 2010?",
             "SELECT count(*) FROM football_data WHERE Season LIKE '%2010%' AND Country = 'Spain'"),
            ("How many goals did home teams score in total?",
             "SELECT sum(fthg) FROM football_data"),
            ("Which leagues are covered?",
             "SELECT DISTINCT League FROM football_data"),
        ]
    # pad with deterministic count queries over the first table's first text
    # column values until the configured per-database count is reached
    table = next(iter(db["tables"]))
    columns = db["tables"][table]
    text_columns = [c for c, t, _ in columns if t == "TEXT"]
    i = 0
    while len(questions) < db["count"]:
        column = text_columns[i % len(text_columns)]
        n = i // len(text_columns) + 1
        questions.append((
            f"How many rows have a value for {column}? (check {n})",
            f"SELECT count({column}) FROM {table} LIMIT {n}",
        ))
        i += 1
    return questions[:db["count"]]


# ---------------------------------------------------------------------------
# directory builders
# ---------------------------------------------------------------------------

def _build_sqlite(path: Path, ddl: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        path.unlink()
    conn = sqlite3.connect(path)
    try:
        conn.executescript(ddl)
        conn.commit()
    finally:
        conn.close()


def build_spider_dir(root: Path) -> Path:
    """Materialize the train corpus in the Spider layout."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "tables.json").write_text(
        json.dumps(TRAIN_TABLES, indent=1), encoding="utf-8")
    examples = [
        {"db_id": db_id, "question": nl, "query": sql}
        for db_id, nl, sql in TRAIN_EXAMPLES
    ]
    (root / "train_spider.json").write_text(
        json.dumps(examples, indent=1, ensure_ascii=False), encoding="utf-8")
    for db_id, ddl in TRAIN_DDL.items():
        _build_sqlite(root / "database" / db_id / f"{db_id}.sqlite", ddl)
    return root


def build_spider_ss_dir(root: Path) -> Path:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    by_nl = {nl: (subs, steps) for nl, subs, steps in SPIDER_SS_RECORDS}
    rows = []
    for db_id, nl, sql in TRAIN_EXAMPLES:
        if nl in by_nl:
            subs, steps = by_nl[nl]
            rows.append({"db_id": db_id, "question": nl, "query": sql,
                         "sub_questions": subs, "natsql_steps": steps})
    (root / "spider_ss.json").write_text(
        json.dumps(rows, indent=1, ensure_ascii=False), encoding="utf-8")
    return root


def build_kaggledbqa_dir(root: Path) -> Path:
    """Materialize the test corpus in the KaggleDBQA layout."""
    root = Path(root)
    (root / "examples").mkdir(parents=True, exist_ok=True)
    manifest = []
    for db in TEST_DATABASES:
        db_id = db["db_id"]
        table_names = list(db["tables"])
        column_names = [[-1, "*"]]
        column_types = ["text"]
        descriptions: list[str | None] = [None]
        for tidx, table in enumerate(table_names):
            for name, sql_type, description in db["tables"][table]:
                column_names.append([tidx, name])
                column_types.append(sql_type.lower())
                descriptions.append(description)
        manifest.append({
            "db_id": db_id,
            "table_names_original": table_names,
            "column_names_original": column_names,
            "column_types": column_types,
            "column_descriptions": descriptions,
            "primary_keys": [],
            "foreign_keys": [],
        })
        questions = _generated_questions(db)
        assert len(questions) == db["count"], (db_id, len(questions))
        assert len({q for q, _ in questions}) == len(questions), db_id
        (root / "examples" / f"{db_id}.json").write_text(
            json.dumps([
                {"db_id": db_id, "question": q, "query": sql}
                for q, sql in questions
            ], indent=1, ensure_ascii=False), encoding="utf-8")
        _build_sqlite(root / "databases" / db_id / f"{db_id}.sqlite", TEST_DDL[db_id])
    (root / "tables.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return root


def nuclear_questions() -> list[tuple[str, str]]:
    return _generated_questions(TEST_DATABASES[0])


def every_test_question() -> list[tuple[str, str]]:
    """Every test database's (question, gold SQL) pairs."""
    return [pair for db in TEST_DATABASES for pair in _generated_questions(db)]


# ---------------------------------------------------------------------------
# replay stores
# ---------------------------------------------------------------------------

def append_record(path: str | Path, request, completions) -> None:
    """Append one replay record: *request* and its *completions*."""
    from psmith.llmclient import _record
    from psmith.records import write_records

    write_records(path, [_record(request, completions)], append=True)


def replay_client(store_path: str | Path, model: str | None = None):
    """A replay-only client over a store, whose transport refuses any
    network call outright."""
    from psmith.llmclient import LlmClient, ReplayStore, forbidden_transport

    return LlmClient(mode="replay", replay_store=ReplayStore.load(store_path),
                     model=model, transport=forbidden_transport)


# ---------------------------------------------------------------------------
# Golden-prompt ingredients: the pinned domain-adapted exemplar material
# ---------------------------------------------------------------------------

def nuclear_pinned_profile():
    """The Nuclear schema profile behind the pinned domain-adapted prompts
    (sampled-values form for every column, descriptions where the schema
    metadata carries them)."""
    from psmith.corpus.types import Column, SampledValues, SchemaProfile, Table

    samples = {
        "Id": ("572", "560", "258", "433"),
        "Name": ("Ågesta", "Turkey Point-4", "Oskarshamn-2", "Ningde-4"),
        "Latitude": ("55.084000", "55.604000", "41.188000", "45.800000"),
        "Longitude": ("-77.311000", "66.790000", "9.393000", "0.845000"),
        "Country": ("Canada", "Germany", "Taiwan, Province of China", "Italy"),
        "Status": ("Planned", "Cancelled Construction", "Under Construction",
                   "Suspended Construction"),
        "ReactorType": ("HWGCR", "GCR", "LWGR", "HTGR"),
        "ReactorModel": ("Konvoi", "VVER V-320", "WH 2LP (DRYAMB)", "PHWR KWU"),
        "ConstructionStartAt": ("1977-02-01", "1968-05-18", "1965-04-12", "1972-11-01"),
        "OperationalFrom": ("2015-06-05", "1977-03-13", "1986-04-10", "1989-09-30"),
        "OperationalTo": ("2011-05-19", "2004-06-29", "1992-05-27", "2015-04-30"),
        "Capacity": ("1092", "125", "535", "1307"),
        "LastUpdatedAt": ("2015-05-24T04:50:59+03:00", "2015-05-24T04:51:11+03:00",
                          "2017-02-10T23:58:48+02:00", "2018-03-10T13:41:49+02:00"),
        "Source": ("WNA/wikipedia/IAEA", "wikipedia", "WNA", "WNA/IAEA/GEO"),
    }
    columns = tuple(Column(name, sql_type, description)
                    for name, sql_type, description in NUCLEAR_COLUMNS)
    return SchemaProfile(
        db_id=NUCLEAR_DB,
        tables=(Table(NUCLEAR_TABLE, columns),),
        value_profile={(NUCLEAR_TABLE, name): SampledValues(values)
                       for name, values in samples.items()},
    )


def empty_bundle(db_id: str = NUCLEAR_DB, ted_threshold: int = 2):
    """An adaptation bundle of no exemplars for *db_id*, holding the pinned
    Nuclear value profile as adapt would have taken it."""
    from psmith.pipelines import AdaptationBundle

    return AdaptationBundle(db_id, ted_threshold, seed=0, numeric_render="range",
                            value_profile=nuclear_pinned_profile().value_profile)


# NL/SQL pairs of the pinned domain-adapted prompt, in order.
DA_PINNED_PAIRS = [
    ("Find the latitudes of nuclear power plants with capacity more than 50.",
     "SELECT DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50;"),
    ("Find the country and status of the nuclear power plant with the highest capacity.",
     "SELECT Country, Status FROM nuclear_power_plants ORDER BY Capacity DESC LIMIT 1;"),
    ("Find the name of nuclear power plants that have two entries in the database?",
     "SELECT T1.Name FROM nuclear_power_plants AS T1 JOIN nuclear_power_plants AS T2 ON T1.Id = T2.Id GROUP BY T2.Id HAVING count(*) = 2;"),
    ("How many nuclear power plants do not have a prerequisite?",
     "SELECT COUNT(*) FROM nuclear_power_plants WHERE Id NOT IN (SELECT Id FROM prereq)"),
    ("Find the total capacity of the nuclear power plants named Marketing or Finance.",
     "SELECT sum(Capacity) FROM nuclear_power_plants WHERE Name = 'Marketing' OR Name = 'Finance'"),
    ("Find the country associated with the nuclear power plant whose name contains 'Soisalon'.",
     "SELECT Country FROM nuclear_power_plants WHERE Name LIKE '%Soisalon%'"),
    ("Find the name of nuclear power plants that are located in both Statistics and Psychology countries.",
     "SELECT Name FROM nuclear_power_plants WHERE Country = 'Statistics' INTERSECT SELECT Name FROM nuclear_power_plants WHERE Country = 'Psychology'"),
    ("Find the name of nuclear power plants that are located in Statistics but not Psychology countries.",
     "SELECT Name FROM nuclear_power_plants WHERE Country = 'Statistics' EXCEPT SELECT Name FROM nuclear_power_plants WHERE Country = 'Psychology'"),
    ("Find the Ids of nuclear power plants that were constructed in Fall 2009 or in Spring 2010.",
     "SELECT Id FROM nuclear_power_plants WHERE ConstructionStartAt = 'Fall' AND LastUpdatedAt = 2009 UNION SELECT Id FROM nuclear_power_plants WHERE ConstructionStartAt = 'Spring' AND LastUpdatedAt = 2010"),
    ("Find the countries and average capacities of all nuclear power plants whose average capacity is greater than 42000.",
     "SELECT Country, AVG (Capacity) FROM nuclear_power_plants GROUP BY Country HAVING AVG (Capacity) > 42000"),
    ("display the Name of the nuclear power plant and the difference between its capacity and the year it was constructed for those plants which capacity is within the range 12000 to 18000.",
     "SELECT Name, Capacity - ConstructionStartAt FROM nuclear_power_plants WHERE Capacity BETWEEN 12000 AND 18000"),
    ("display the ID for each nuclear power plant and the date on which it stopped operating.",
     "SELECT Id, MAX(OperationalTo) FROM nuclear_power_plants GROUP BY Id"),
    ("return the smallest capacity for each nuclear power plant.",
     "SELECT MIN(Capacity), Id FROM nuclear_power_plants GROUP BY Id"),
    ("display the id and the total capacity for those nuclear power plants which have at least two reactors.",
     "SELECT Id, SUM(Capacity) FROM nuclear_power_plants GROUP BY Id HAVING count(*) >= 2"),
    ("Count how many times the capacity of a nuclear power plant is equal to the sum of its status and reactor type.",
     "SELECT COUNT(*) FROM nuclear_power_plants AS T1 JOIN nuclear_power_plants AS T2 ON T1.Id = T2.Id WHERE T2.Capacity = T1.Status + T1.ReactorType;"),
    ("Find the names of the nuclear power plants with capacity smaller than 3 or capacity greater than 5.",
     "SELECT Name FROM nuclear_power_plants WHERE Capacity < 3 OR Capacity > 5"),
]

# (nl, sub_questions, steps, sql) chains of the pinned least-to-most
# domain-adapted prompt, in order.
LTMP_DA_PINNED_CHAINS = [
    ("Find the latitudes of nuclear power plants with capacity more than 50.",
     ["Find the latitudes of nuclear power plants", "with capacity more than 50."],
     ["select distinct nuclear_power_plants.Latitude",
      "select where nuclear_power_plants.Capacity > 50"],
     "SELECT DISTINCT Latitude FROM nuclear_power_plants WHERE Capacity > 50"),
    ("Find the country and status of the nuclear power plant with the highest capacity.",
     ["Find the country and status of the nuclear power plant", "with the highest capacity."],
     ["select nuclear_power_plants.Country, nuclear_power_plants.Status",
      "select order by nuclear_power_plants.Capacity desc limit 1"],
     "SELECT Country, Status FROM nuclear_power_plants ORDER BY Capacity DESC LIMIT 1"),
    ("Find the name of nuclear power plants that have two entries in the database?",
     ["Find the name of nuclear power plants", "that have two entries in the database?"],
     ["select nuclear_power_plants.Name",
      "select where count(nuclear_power_plants.*)=2 group by nuclear_power_plants.Id"],
     "SELECT T1.Name FROM nuclear_power_plants AS T1 JOIN nuclear_power_plants AS T2 ON T1.Id = T2.Id GROUP BY T2.Id HAVING count(*) = 2"),
    ("How many nuclear power plants do not have a prerequisite?",
     ["How many nuclear power plants", "do not have a prerequisite?"],
     ["select count(nuclear_power_plants.*)", "select where @.@ not in prereq.Id"],
     "SELECT COUNT(*) FROM nuclear_power_plants WHERE Id NOT IN (SELECT Id FROM prereq)"),
    ("Find the total capacity of the nuclear power plants named Marketing or Finance.",
     ["Find the total capacity of the nuclear power plants named Marketing or Finance."],
     ['select sum(nuclear_power_plants.Capacity) where nuclear_power_plants.Name = "Marketing" or nuclear_power_plants.Name="Finance"'],
     "SELECT sum(Capacity) FROM nuclear_power_plants WHERE Name = 'Marketing' OR Name = 'Finance'"),
    ("Find the country associated with the nuclear power plant whose name contains 'Soisalon'.",
     ["Find the country associated with the nuclear power plant",
      'whose name contains "Soisalon".'],
     ["select nuclear_power_plants.Country",
      'select where nuclear_power_plants.name like "%Soisalon%"'],
     "SELECT Country FROM nuclear_power_plants WHERE Name LIKE '%Soisalon%'"),
    ("Find the name of nuclear power plants that are located in both Statistics and Psychology countries.",
     ["Find the name of nuclear power plants",
      "that are located in both Statistics and Psychology countries."],
     ["select nuclear_power_plants.Name",
      'select where nuclear_power_plants.Country="Statistics" and nuclear_power_plants.Country="Psychology"'],
     "SELECT Name FROM nuclear_power_plants WHERE Country = 'Statistics' INTERSECT SELECT Name FROM nuclear_power_plants WHERE Country = 'Psychology'"),
    ("Find the name of nuclear power plants that are located in Statistics but not Psychology countries.",
     ["Find the name of nuclear power plants",
      "that are located in Statistics but not Psychology countries."],
     ["select nuclear_power_plants.Name",
      'select where nuclear_power_plants.Country="Statistics"',
      'select where nuclear_power_plants.Country!="Psychology"'],
     "SELECT Name FROM nuclear_power_plants WHERE Country = 'Statistics' EXCEPT SELECT Name FROM nuclear_power_plants WHERE Country = 'Psychology'"),
    ("Find the Ids of nuclear power plants that were constructed in Fall 2009 or in Spring 2010.",
     ["Find the Ids of nuclear power plants",
      "that were constructed in Fall 2009 or, in Spring 2010."],
     ["select nuclear_power_plants.Id",
      'select where nuclear_power_plants.ConstructionStartAt="Fall" and nuclear_power_plants.LastUpdatedAt=2009',
      'select where nuclear_power_plants.ConstructionStartAt="Spring" and nuclear_power_plants.LastUpdatedAt=2010'],
     "SELECT Id FROM nuclear_power_plants WHERE ConstructionStartAt = 'Fall' AND LastUpdatedAt = 2009 UNION SELECT Id FROM nuclear_power_plants WHERE ConstructionStartAt = 'Spring' AND LastUpdatedAt = 2010"),
    ("Find the countries and average capacities of all nuclear power plants whose average capacity is greater than 42000.",
     ["Find the countries and average capacities of all nuclear power plants, whose average capacity is greater than 42000."],
     ["select nuclear_power_plants.Country, avg(isntructor.Capacity) group by nuclear_power_plants.Country",
      "select where avg(nuclear_power_plants.Capacity) > 42000"],
     "SELECT Country, AVG (Capacity) FROM nuclear_power_plants GROUP BY Country HAVING AVG (Capacity) > 42000"),
    ("display the Name of the nuclear power plant and the difference between its capacity and the year it was constructed for those plants which capacity is within the range 12000 to 18000.",
     ["display the Name of the nuclear power plant and the difference between its capacity and the year it was constructed for those plants",
      "which capacity is within the range 12000 to 18000."],
     ["select nuclear_power_plants.Name, nuclear_power_plants.Capacity - nuclear_power_plants.ConstructionStartAt",
      "select where nuclear_power_plants.Capacity between 12000 and 18000"],
     "SELECT Name, Capacity - ConstructionStartAt FROM nuclear_power_plants WHERE Capacity BETWEEN 12000 AND 18000"),
    ("display the ID for each nuclear power plant and the date on which it stopped operating.",
     ["display the ID for each nuclear power plant and the date", "on which it stopped operating."],
     ["select nuclear_power_plants.Id, max(nuclear_power_plants.OperationalTo) group by nuclear_power_plants.Id",
      "select extra max (nuclear_power_plants.OperationalTo)"],
     "SELECT Id, MAX(OperationalTo) FROM nuclear_power_plants GROUP BY Id"),
    ("return the smallest capacity for each nuclear power plant.",
     ["return the smallest capacity for each nuclear power plant."],
     ["select min(nuclear_power_plants.Capacity), nuclear_power_plants.Id group by nuclear_power_plants.Id"],
     "SELECT MIN(Capacity), Id FROM nuclear_power_plants GROUP BY Id"),
    ("display the id and the total capacity for those nuclear power plants which have at least two reactors.",
     ["display the id and the total capacity for those nuclear power plants",
      "which have at least two reactors."],
     ["select nuclear_power_plants.Id, sum(nuclear_power_plants.Capacity)",
      "select where count (nuclear_power_plants.*)>=2 group by nuclear_power_plants.Id"],
     "SELECT Id, SUM(Capacity) FROM nuclear_power_plants GROUP BY Id HAVING count(*) >= 2"),
    ("Count how many times the capacity of a nuclear power plant is equal to the sum of its status and reactor type.",
     ["Count how many times the capacity of a nuclear power plant",
      "is equal to the sum of its status", "and reactor type."],
     ["select count(nuclear_power_plants.*)",
      "select where nuclear_power_plants.Capacity=nuclear_power_plants.Status + nuclear_power_plants.ReactorType",
      "select extra nuclear_power_plants.Capacity"],
     "SELECT COUNT(*) FROM nuclear_power_plants AS T1 JOIN nuclear_power_plants AS T2 ON T1.Id = T2.Id WHERE T2.Capacity = T1.Status + T1.ReactorType"),
    ("Find the names of the nuclear power plants with capacity smaller than 3 or capacity greater than 5.",
     ["Find the names of the nuclear power plants with capacity", "smaller than 3 or",
      "capacity greater than 5."],
     ["select nuclear_power_plants.Name", "select where nuclear_power_plants.Capacity < 3",
      "select where nuclear_power_plants.Capacity > 5"],
     "SELECT Name FROM nuclear_power_plants WHERE Capacity < 3 OR Capacity > 5"),
]

# The pinned test-question decomposition of the least-to-most prompts.
LTMP_TEST_SUB_QUESTIONS = ["Which country has the most capacities of nuclear power plants?"]
LTMP_TEST_STEPS = [
    "select nuclear_power_plants.Country, sum(nuclear_power_plants.Capacity) group by nuclear_power_plants.Country",
    "select order by sum(nuclear_power_plants.Capacity) desc limit 1",
]
